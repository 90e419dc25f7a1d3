#pragma once

/// \file blocking.hpp
/// \brief Cache-blocked execution of low-qubit gate runs.
///
/// A gate whose target bit positions are all below `b` permutes and mixes
/// amplitudes only *within* each 2^b-aligned chunk of the state: chunks
/// are closed under its index transform.  So a run of consecutive fused
/// blocks that all live in the low-position window can be applied with a
/// SINGLE streaming sweep of the state — load one 2^b-amplitude chunk
/// (sized to fit L2), apply the whole gate run to it while it is
/// cache-hot, store it, move on — instead of one full-state sweep per
/// block.  The chunked execution is bit-identical to the sequential
/// unblocked sweeps: every chunk sees the same span kernels, in the same
/// order, over the same amplitudes.
///
/// In the MSB-first qubit convention, bit position = nbQubits - 1 - qubit,
/// so the low-position window is the HIGH-index qubits [nbQubits - b,
/// nbQubits) — exactly the targets with long unit-stride runs that the
/// SIMD tier (simd.hpp) vectorizes best.  Blocking and SIMD compose: the
/// per-chunk kernels are the same dispatched span kernels.
///
/// The scheduler here is generic over any block type exposing an
/// ascending `.qubits`, so fusion.hpp can build a BlockSchedule into its
/// FusionPlan without a dependency cycle; the executor runs each block's
/// kernel record (kernel_op.hpp).

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <vector>

#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/kernel_op.hpp"
#include "qclab/sim/parallel.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sim {

/// Assumed per-core L2 capacity behind the automatic chunk size.  1 MiB
/// is the L2 of common x86 server cores (Skylake-SP, Zen 4); on another
/// L2 the chunks only use the cache less well, and results stay
/// bit-identical, since chunking never changes the arithmetic.
inline constexpr std::size_t kAssumedL2Bytes = std::size_t{1} << 20;

/// Minimum consecutive blockable fused blocks worth a blocked sweep: a
/// lone block gains nothing from chunking (it is the same one sweep).
inline constexpr std::size_t kMinBlockedRun = 2;

/// Largest b such that a 2^b-amplitude chunk fills at most half of
/// l2Bytes (leaving room for gate data and the streaming frontier).
template <typename T>
int autoBlockQubits(std::size_t l2Bytes) noexcept {
  const std::size_t perChunk = 2 * sizeof(std::complex<T>);
  int b = 0;
  while ((std::size_t{2} << b) * perChunk <= l2Bytes) ++b;
  return b;
}

/// One scheduled run of consecutive fused blocks [first, first + count).
struct BlockItem {
  std::size_t first = 0;  ///< index of the first fused block in the run
  std::size_t count = 0;  ///< number of consecutive fused blocks
  bool blocked = false;   ///< true: one chunked sweep; false: plain sweeps
};

/// An ordered partition of a fused-block list into blocked and plain runs.
/// An empty item list means "no blocking" (every block on its own sweep).
struct BlockSchedule {
  std::vector<BlockItem> items;
  int blockQubits = 0;  ///< chunk size used by the blocked items

  /// Number of blocked runs in the schedule.
  std::size_t blockedRuns() const noexcept {
    std::size_t n = 0;
    for (const auto& item : items) n += item.blocked ? 1 : 0;
    return n;
  }
};

/// Partitions `blocks` into maximal runs of consecutive blocks whose
/// qubits all live in the low-position window of `blockQubits` bits
/// (i.e. every qubit index >= nbQubits - b); `blockQubits` <= 0 sizes the
/// chunk to kAssumedL2Bytes.  Runs shorter than kMinBlockedRun stay
/// unblocked.  Returns an empty schedule when blocking cannot help (the
/// whole state already fits one chunk, or no run is long enough).
template <typename T = double, typename Block>
BlockSchedule buildBlockSchedule(const std::vector<Block>& blocks,
                                 int nbQubits, int blockQubits) {
  const obs::ScopedSpan span("fusion/block-schedule");
  BlockSchedule schedule;
  if (blocks.empty()) return schedule;

  int b = blockQubits;
  if (b <= 0) {
    // Size the chunk by the ACTUAL amplitude width: a float state fits
    // twice the amplitudes of a double state in the same L2, so sizing
    // for double would leave half of it unused.
    b = autoBlockQubits<T>(kAssumedL2Bytes);
  }
  b = std::min(b, nbQubits);
  // Whole state fits one chunk: every gate is already "cache-blocked".
  if (b >= nbQubits) return schedule;
  schedule.blockQubits = b;

  const int lowestBlockableQubit = nbQubits - b;
  const auto blockable = [&](const Block& block) {
    return !block.qubits.empty() && block.qubits.front() >= lowestBlockableQubit;
  };

  bool sawBlockedRun = false;
  std::size_t i = 0;
  while (i < blocks.size()) {
    std::size_t j = i;
    const bool runBlockable = blockable(blocks[i]);
    while (j < blocks.size() && blockable(blocks[j]) == runBlockable) ++j;
    BlockItem item;
    item.first = i;
    item.count = j - i;
    item.blocked = runBlockable && (j - i) >= kMinBlockedRun;
    sawBlockedRun = sawBlockedRun || item.blocked;
    schedule.items.push_back(item);
    i = j;
  }
  if (!sawBlockedRun) schedule.items.clear();  // nothing gained: plain plan
  return schedule;
}

/// Applies the run of fused blocks [first, first + count) with ONE
/// streaming sweep of the state in 2^blockQubits-amplitude chunks.  Every
/// block in the run must have all its qubits >= nbQubits - blockQubits
/// (enforced by buildBlockSchedule).  Bit-identical to applying the
/// blocks sequentially with full sweeps.
///
/// Generic over the state container (anything with data() and
/// value_type) and over the block type (a KernelOp or a type derived from
/// it, like FusedBlock).  Each thread walks its OWN contiguous chunk range
/// (parallelRanges).
template <typename State, typename Block>
void applyBlockedRun(State& state, int nbQubits,
                     const std::vector<Block>& blocks, std::size_t first,
                     std::size_t count, int blockQubits) {
  using T = typename State::value_type::value_type;
  util::require(blockQubits >= 1 && blockQubits < nbQubits,
                "applyBlockedRun: chunk size out of range");
  for (std::size_t i = first; i < first + count; ++i) {
    util::require(!blocks[i].qubits.empty() &&
                      blocks[i].qubits.front() >= nbQubits - blockQubits,
                  "applyBlockedRun: block escapes the chunk window");
  }

  const SimdLevel level = activeSimdLevel();
  const std::int64_t chunkDim = std::int64_t{1} << blockQubits;
  const std::int64_t chunks = std::int64_t{1} << (nbQubits - blockQubits);

  // Numerical-health sentinel: when this run's check is due, each chunk is
  // scanned right after its kernels while it is still cache-hot, the
  // per-share partials are merged once, in share order, and ONE report
  // covers the whole sweep — the sentinel cost rides the blocking win
  // instead of forcing its own full-state pass.
  const bool sentinelDue = obs::sentinel().shouldCheck();
  struct SentinelShare {
    double normSq = 0.0;
    double maxAmpSq = 0.0;
    bool nanSeen = false;
  };
  const int parts = teamSize(chunks, 2);
  std::vector<SentinelShare> sentinelShares(
      sentinelDue ? static_cast<std::size_t>(parts) : 0);
  const auto sentinelBegin = sentinelDue
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};

  // Each thread walks its own contiguous chunk share.
  const auto sweep = [&](std::int64_t chunkLo, std::int64_t chunkHi,
                         int part) {
    ChunkScratch<T> scratch;
    SentinelShare share;
    for (std::int64_t c = chunkLo; c < chunkHi; ++c) {
      for (std::size_t i = first; i < first + count; ++i) {
        applyKernelOpChunk<T>(state.data() + c * chunkDim, chunkDim,
                              nbQubits, blocks[i], level, scratch);
      }
      if (sentinelDue) {
        obs::sentinelAccumulateChunk(state.data() + c * chunkDim,
                                     static_cast<std::size_t>(chunkDim),
                                     share.normSq, share.maxAmpSq,
                                     share.nanSeen);
      }
    }
    if (sentinelDue) sentinelShares[static_cast<std::size_t>(part)] = share;
  };
  parallelRanges(chunks, parts, sweep);
  double sentinelNormSq = 0.0;
  double sentinelMaxAmpSq = 0.0;
  bool sentinelNanSeen = false;
  for (const SentinelShare& share : sentinelShares) {
    sentinelNormSq += share.normSq;
    sentinelMaxAmpSq = std::max(sentinelMaxAmpSq, share.maxAmpSq);
    sentinelNanSeen = sentinelNanSeen || share.nanSeen;
  }
  if (sentinelDue) {
    const auto elapsed = std::chrono::steady_clock::now() - sentinelBegin;
    obs::sentinel().report(
        sentinelNormSq, sentinelMaxAmpSq, sentinelNanSeen, "blocked",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }
}

}  // namespace qclab::sim
