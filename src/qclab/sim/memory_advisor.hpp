#pragma once

/// \file memory_advisor.hpp
/// \brief The executor -> memory-tier hinting contract.
///
/// The blocked executor (blocking.hpp) walks the state in deterministic
/// per-thread chunk ranges; a tiered state buffer (state_buffer.hpp) may
/// hold those amplitudes in memory the kernel should be told about —
/// e.g. a file-backed mmap whose pages are faulted from disk.  The
/// executor talks to the tier through this tiny interface so that
/// blocking.hpp never depends on the buffer implementation (and
/// state_buffer.hpp can include obs/metrics.hpp without a cycle).
///
/// Offsets and lengths are in BYTES from the start of the state.  The
/// advisor batches at its own granule size: willNeed/retire on a byte
/// range affect every granule the range overlaps.  All methods must be
/// thread-safe — the blocked executor calls them from inside an OpenMP
/// parallel region, one walker per thread.

#include <cstdint>

namespace qclab::sim {

/// The memory tier a state buffer lives in.  The resolved tiers come
/// first so they double as 0-based counter indices (obs per-tier byte
/// gauges); kAuto is a request, never a resolved tier.
enum class StateTier : int {
  kHeap = 0,  ///< heap allocation (std::vector), THP-advised when large
  kMmap,      ///< file-backed out-of-core mapping with prefetch advisor
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

/// Hint sink for schedule-driven prefetch (out-of-core states).
class MemoryAdvisor {
 public:
  virtual ~MemoryAdvisor() = default;

  /// Batch size of the underlying advice calls, in bytes.  Always a
  /// power of two and a multiple of the page size.
  virtual std::uint64_t granuleBytes() const noexcept = 0;

  /// The executor is about to stream through [offsetBytes, offsetBytes
  /// + bytes): fault it in ahead of use (e.g. madvise(MADV_WILLNEED)).
  virtual void willNeed(std::uint64_t offsetBytes,
                        std::uint64_t bytes) noexcept = 0;

  /// The executor has finished with [offsetBytes, offsetBytes + bytes)
  /// for this sweep: the pages may be dropped (e.g. MADV_DONTNEED on a
  /// file-backed shared mapping, where the file keeps the data).
  virtual void retire(std::uint64_t offsetBytes,
                      std::uint64_t bytes) noexcept = 0;
};

}  // namespace qclab::sim
