#pragma once

/// \file json.hpp
/// \brief Shared JSON string escaping for every obs exporter.
///
/// All JSON emitted by the observability layer (Chrome traces, reports,
/// bench trajectories) quotes strings through this one function, so a
/// gate-kind key, result name, or build-info string containing quotes,
/// backslashes, or control characters can never corrupt an export.
/// Available in QCLAB_OBS_DISABLED builds too: the all-zero Report still
/// writes well-formed JSON.

#include <string>

namespace qclab::obs {

/// Escapes a string for embedding in a JSON string literal.
inline std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace qclab::obs
