#pragma once

/// \file state_tier.hpp
/// \brief The memory tiers a state buffer can live on.
///
/// Kept in its own dependency-free header (like kernel_path.hpp) so that
/// the observability layer can name the tiers without including the
/// buffer (sim/state_buffer.hpp includes obs/metrics.hpp).

namespace qclab::sim {

/// The memory tier a state buffer lives in.  The resolved tiers come
/// first so they double as 0-based counter indices (obs per-tier byte
/// gauges); kAuto is a request, never a resolved tier.
enum class StateTier : int {
  kHeap = 0,  ///< heap allocation (std::vector), THP-advised when large
  kMmap,      ///< mapping of an unlinked temporary file (out-of-core)
  kAuto,      ///< pick by state size (SimulateOptions / env default)
};

/// Number of resolved tiers (counter-array size; excludes kAuto).
inline constexpr int kStateTierCount = 2;

/// Stable short name of a tier (reports, env parsing).
inline const char* stateTierName(StateTier tier) noexcept {
  switch (tier) {
    case StateTier::kHeap: return "heap";
    case StateTier::kMmap: return "mmap";
    case StateTier::kAuto: return "auto";
  }
  return "unknown";
}

}  // namespace qclab::sim
