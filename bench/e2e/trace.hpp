#pragma once

/// \file trace.hpp
/// \brief In-memory span recorder of the traced qclab_e2e run.
///
/// The benchmark wraps each call it makes into a library layer in a span
/// named after the layer's module.  Spans of one request share the
/// request id and form a tree under the root "request" span, whose self
/// time is the harness's own glue.  At the end of each request the spans
/// are folded into per-layer self times (a span's duration minus the
/// part its direct children cover); the spans of the first
/// `retainRequests` requests are also kept for the Chrome-trace export.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "qclab/obs/json.hpp"

namespace qclab::e2e {

/// Layers the benchmark records, in report order.  kRequest is the root.
inline constexpr const char* kRequest = "request";
inline constexpr const char* kLayers[] = {
    "io.parse",           "sim.state_buffer.alloc", "qcircuit.execute",
    "simulation.sample",  "sim.batch.run",          "observable.expectation",
};
inline constexpr std::size_t kLayerCount = std::size(kLayers);

/// Index of `name` in kLayers; kLayerCount for the root.
inline std::size_t layerIndex(const char* name) {
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (std::strcmp(name, kLayers[l]) == 0) return l;
  }
  return kLayerCount;
}

class Tracer {
 public:
  explicit Tracer(std::size_t retainRequests)
      : retainRequests_(retainRequests), origin_(now()) {}

  /// Starts the spans of request `id`; those of a request that threw
  /// before endRequest are dropped.
  void beginRequest(std::uint64_t id) {
    request_ = id;
    spans_.clear();
    current_ = -1;
    open(kRequest);
  }

  /// Closes the root span and folds the request's spans into per-layer
  /// self times.
  void endRequest() {
    close(0);
    double self[kLayerCount + 1] = {};  // index kLayerCount = root
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      double duration = spans_[i].endNs - spans_[i].startNs;
      for (std::size_t j = i + 1; j < spans_.size(); ++j) {
        if (spans_[j].parent == static_cast<int>(i)) {
          duration -= spans_[j].endNs - spans_[j].startNs;
        }
      }
      self[layerIndex(spans_[i].name)] += duration;
    }
    for (std::size_t l = 0; l <= kLayerCount; ++l) {
      selfNs_[l].push_back(self[l]);
    }
    requestNs_.push_back(spans_[0].endNs - spans_[0].startNs);
    if (requestNs_.size() <= retainRequests_) {
      for (const Span& span : spans_) retained_.push_back(span);
    }
  }

  /// Opens a span under the innermost open span; returns its handle.
  int open(const char* name) {
    spans_.push_back({name, now() - origin_, 0.0, current_, request_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int handle) {
    Span& span = spans_[static_cast<std::size_t>(handle)];
    span.endNs = now() - origin_;
    current_ = span.parent;
  }

  /// Per-request self time of layer `l` (kLayerCount = the root), in ns.
  const std::vector<double>& selfNs(std::size_t l) const { return selfNs_[l]; }
  /// Per-request duration of the root span, in ns.
  const std::vector<double>& requestNs() const { return requestNs_; }

  /// Writes the retained spans as a Chrome trace (chrome://tracing,
  /// Perfetto).  Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < retained_.size(); ++i) {
      const Span& span = retained_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
          << obs::jsonEscape(span.name)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << span.startNs / 1e3 << ", \"dur\": "
          << (span.endNs - span.startNs) / 1e3
          << ", \"args\": {\"request\": " << span.request
          << ", \"parent\": \""
          << (span.parent < 0 ? "" : parentName(i)) << "\"}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double startNs;
    double endNs;
    int parent;  ///< index within its request, -1 for the root
    std::uint64_t request;
  };

  static double now() {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Name of the parent of retained span `i` (parents precede children
  /// of the same request; the root sits at offset 0 of its request).
  const char* parentName(std::size_t i) const {
    std::size_t root = i;
    while (retained_[root].parent >= 0) --root;
    return retained_[root + static_cast<std::size_t>(retained_[i].parent)]
        .name;
  }

  std::size_t retainRequests_;
  double origin_;
  std::uint64_t request_ = 0;
  int current_ = -1;
  std::vector<Span> spans_;
  std::vector<Span> retained_;
  std::vector<double> selfNs_[kLayerCount + 1];
  std::vector<double> requestNs_;
};

/// RAII span; a no-op without a tracer (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), handle_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

}  // namespace qclab::e2e
