#pragma once

/// \file fusion.hpp
/// \brief Simulation-time gate fusion (the Qulacs-style CPU optimization).
///
/// Applying one gate per pass over the 2^n-amplitude state makes deep
/// circuits memory-bandwidth bound: every gate streams the whole state
/// through the cache hierarchy.  The fusion scheduler greedily merges
/// maximal runs of adjacent gates whose combined qubit support fits a
/// <= maxQubits window into one dense block, so several full-state sweeps
/// collapse into a single sweep per block.  Runs in which every merged
/// gate is diagonal keep a diagonal block — stored as its 2^k diagonal
/// entries, never densified — and go through the cheaper
/// one-multiply-per-amplitude diagonal sweep instead.
///
/// With FusionOptions::separateDiagonalRuns (on by default) the scheduler
/// keeps diagonal gates out of dense blocks entirely and grows
/// diagonal-only blocks up to the much wider diagonalMaxQubits window: a
/// layer of RZZ gates or a CPhase ladder collapses into a couple of
/// table-driven sweeps, while the dense gates around it keep their cheap
/// dense1/dense2 kernels.  Wide diagonal windows are only affordable
/// because diagonal blocks store 2^k entries instead of a 4^k dense
/// matrix.
///
/// The scheduler is a pure function over gate sequences (fuseGates), so a
/// plan is built once per gate run and applied to every simulation
/// branch.  The runs themselves come from sim::segmentOps (execute.hpp),
/// so simulate, the dispatch suffix, the batch engine, and the trajectory
/// engine fuse the same runs.
/// Each block additionally records its *recipe* — which gate went in at
/// which step, over which window — so rebindFusionPlan can replay the
/// exact accumulation arithmetic after gate parameters changed (setTheta)
/// without re-running the scheduler.  A rebound plan is bit-identical to
/// a freshly fused one, which is what the batched engine relies on.
///
/// Plan application (applyFusionPlan) is const and re-entrant: all
/// mutable state lives in locals, so one plan can be shared by many
/// threads (trajectory workers, batch members) concurrently.
///
/// On top of the fused blocks the plan carries a cache-blocking schedule
/// (blocking.hpp): maximal runs of consecutive blocks whose qubits all
/// live in the low-bit-position window are executed with ONE streaming
/// sweep of the state in L2-sized chunks instead of one sweep per block.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qgates/qgate.hpp"
#include "qclab/sim/blocking.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/kernels.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sim {

/// Tuning knobs of the fusion scheduler.  The defaults are the one
/// configuration every driver fuses with (QCircuit::simulate, the
/// dispatch suffix, the batch engine, the trajectory engine): narrow dense
/// blocks that keep the SIMD dense1/dense2 kernels, wide diagonal-only
/// blocks, and cache blocking.
struct FusionOptions {
  /// Largest dense-block support; blocks hold 2^maxQubits x 2^maxQubits
  /// matrices.  Blocks of 3 or more qubits go through the scalar applyK,
  /// not the SIMD apply1/apply2 (a 4-step Trotter-Ising at n = 20 took
  /// 184-331 ms at 3 against 43-77 ms at 2), hence 2.  Gates wider than
  /// the window pass through unfused.
  int maxQubits = 2;
  /// Cache-block runs of low-position fused blocks into single streamed
  /// sweeps (see blocking.hpp).
  bool blocking = true;
  /// Chunk size in qubits for blocked sweeps; 0 = size to the L2 cache.
  int blockQubits = 0;
  /// Minimum consecutive blockable fused blocks worth a blocked sweep.
  std::size_t minBlockRun = 2;
  /// Never merge diagonal gates into dense blocks (and vice versa):
  /// diagonal gates accumulate into diagonal-only blocks governed by
  /// diagonalMaxQubits, dense gates into dense blocks governed by
  /// maxQubits.  Off merges both kinds into mixed blocks.
  bool separateDiagonalRuns = true;
  /// Window for diagonal-only blocks when separateDiagonalRuns is on;
  /// 0 = maxQubits.  A diagonal block stores 2^k entries (not a dense
  /// matrix), so windows of 10-12 qubits are cheap and collapse whole
  /// diagonal layers (QAOA cost layers, CZ/CPhase ladders) into one or
  /// two table-driven sweeps.
  int diagonalMaxQubits = 12;
};

/// A gate reference inside a fusion run: the gate plus the accumulated
/// qubit offset of the (sub-)circuit it came from.
template <typename T>
struct GateRef {
  const qgates::QGate<T>* gate = nullptr;
  int offset = 0;
};

/// One step of a block's accumulation recipe: gate `gateIndex` of the
/// fused run was merged over absolute `qubits` into window `window`
/// (the block's support right after this step).  rebindFusionPlan
/// replays these steps verbatim.
struct FusedStep {
  std::size_t gateIndex = 0;  ///< index into the fused gate run
  std::vector<int> qubits;    ///< absolute ascending gate qubits
  std::vector<int> window;    ///< block support after this step
};

/// One scheduled block: the product of a run of gates over a common
/// ascending qubit window (MSB-first, like every gate matrix).  Dense
/// blocks hold the 2^k x 2^k product in `matrix`; diagonal blocks hold
/// only the 2^k diagonal entries in `diag` (matrix stays empty).
template <typename T>
struct FusedBlock {
  std::vector<int> qubits;   ///< ascending absolute qubit indices
  dense::Matrix<T> matrix;   ///< dense blocks: 2^k x 2^k product
  std::vector<std::complex<T>> diag;  ///< diagonal blocks: 2^k entries
  bool diagonal = false;     ///< every merged gate was diagonal
  std::size_t gatesIn = 0;   ///< number of gates merged into this block
  std::vector<FusedStep> steps;  ///< rebind recipe (one per merged gate)
};

/// Aggregate scheduling outcome (the obs fusion counters use the same
/// three numbers).
struct FusionStats {
  std::uint64_t gatesIn = 0;      ///< gates consumed by the scheduler
  std::uint64_t blocksOut = 0;    ///< blocks emitted
  std::uint64_t sweepsSaved = 0;  ///< full-state sweeps avoided (in - out)
};

/// An ordered list of fused blocks, applied left to right.  The block
/// schedule partitions them into cache-blocked and plain runs; an empty
/// schedule means every block gets its own full-state sweep.
template <typename T>
struct FusionPlan {
  std::vector<FusedBlock<T>> blocks;
  BlockSchedule schedule;

  FusionStats stats() const noexcept {
    FusionStats s;
    for (const auto& block : blocks) {
      s.gatesIn += block.gatesIn;
      ++s.blocksOut;
    }
    s.sweepsSaved = s.gatesIn - s.blocksOut;
    return s;
  }
};

namespace detail {

/// Embeds a matrix over the ascending qubit list `from` into the superset
/// window `to` (identity on window qubits the gate does not touch), keeping
/// the MSB-first qubit ordering of both lists.
template <typename T>
dense::Matrix<T> embedInWindow(const dense::Matrix<T>& u,
                               const std::vector<int>& from,
                               const std::vector<int>& to) {
  if (from == to) return u;
  const int k = static_cast<int>(from.size());
  const int m = static_cast<int>(to.size());

  // Bit position of each `from` qubit within a window index.
  std::vector<int> positions(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto it = std::lower_bound(to.begin(), to.end(),
                                     from[static_cast<std::size_t>(i)]);
    util::require(it != to.end() && *it == from[static_cast<std::size_t>(i)],
                  "fusion window does not cover the gate qubits");
    positions[static_cast<std::size_t>(i)] =
        util::bitPosition(static_cast<int>(it - to.begin()), m);
  }

  const std::size_t dim = std::size_t{1} << m;
  dense::Matrix<T> full(dim, dim);
  for (util::index_t row = 0; row < dim; ++row) {
    util::index_t gateRow = 0;
    for (int i = 0; i < k; ++i) {
      gateRow = (gateRow << 1) |
                util::getBit(row, positions[static_cast<std::size_t>(i)]);
    }
    for (util::index_t gateCol = 0; gateCol < (util::index_t{1} << k);
         ++gateCol) {
      const std::complex<T> value = u(gateRow, gateCol);
      if (value == std::complex<T>(0)) continue;
      util::index_t col = row;
      for (int i = 0; i < k; ++i) {
        const int pos = positions[static_cast<std::size_t>(i)];
        col = util::getBit(gateCol, util::bitPosition(i, k))
                  ? util::setBit(col, pos)
                  : util::clearBit(col, pos);
      }
      full(row, col) = value;
    }
  }
  return full;
}

/// Bit position of each `from` qubit within an index over window `to`
/// (MSB-first), shared by the diagonal embed/grow/multiply helpers.
inline std::vector<int> windowPositions(const std::vector<int>& from,
                                        const std::vector<int>& to) {
  const int m = static_cast<int>(to.size());
  std::vector<int> positions(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto it = std::lower_bound(to.begin(), to.end(), from[i]);
    util::require(it != to.end() && *it == from[i],
                  "fusion window does not cover the gate qubits");
    positions[i] = util::bitPosition(static_cast<int>(it - to.begin()), m);
  }
  return positions;
}

/// The 2^k diagonal entries of a (diagonal) gate matrix.
template <typename T>
std::vector<std::complex<T>> diagonalOf(const dense::Matrix<T>& u) {
  std::vector<std::complex<T>> d(u.rows());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = u(i, i);
  return d;
}

/// Embeds the diagonal `d` over qubits `from` into window `to`:
/// out[r] = d[bits of r at the `from` positions] (identity elsewhere).
template <typename T>
std::vector<std::complex<T>> embedDiagonalInWindow(
    const std::vector<std::complex<T>>& d, const std::vector<int>& from,
    const std::vector<int>& to) {
  if (from == to) return d;
  const std::vector<int> positions = windowPositions(from, to);
  std::vector<std::complex<T>> out(std::size_t{1} << to.size());
  for (util::index_t r = 0; r < out.size(); ++r) {
    util::index_t gateRow = 0;
    for (const int pos : positions) {
      gateRow = (gateRow << 1) | util::getBit(r, pos);
    }
    out[r] = d[gateRow];
  }
  return out;
}

/// One diagonal factor of a block product: a gate's 2^k diagonal entries
/// over its ascending absolute qubits.  Diagonal blocks accumulate as a
/// list of factors and materialize through the pairwise tree below.
template <typename T>
struct DiagFactor {
  std::vector<std::complex<T>> d;
  std::vector<int> qubits;
};

/// XOR-delta table for sequential gathers.  gatherRow(r) selects the bits
/// of r at the gather positions (MSB-first); selection distributes over
/// XOR, so gatherRow(r ^ f) == gatherRow(r) ^ gatherRow(f).  Walking r
/// from 0 to 2^m - 1 flips exactly the ctz(r)+1 low bits at each
/// increment, and those flip patterns take only m+1 distinct values —
/// precomputing gatherRow of each turns the per-entry k-bit gather loop
/// into one ctz plus one XOR.  Fills deltas[j] = gatherRow of the pattern
/// with j low bits, for the qubits of `from` inside window `to` (deltas
/// must have room for |to|+1 entries; no allocation).
inline void fillGatherDeltas(const std::vector<int>& from,
                             const std::vector<int>& to,
                             util::index_t* deltas) {
  const int m = static_cast<int>(to.size());
  const int k = static_cast<int>(from.size());
  int positions[64];
  for (int i = 0; i < k; ++i) {
    const auto it = std::lower_bound(to.begin(), to.end(),
                                     from[static_cast<std::size_t>(i)]);
    util::require(it != to.end() && *it == from[static_cast<std::size_t>(i)],
                  "fusion window does not cover the gate qubits");
    positions[i] = util::bitPosition(static_cast<int>(it - to.begin()), m);
  }
  for (int j = 0; j <= m; ++j) {
    util::index_t g = 0;
    for (int i = 0; i < k; ++i) {
      if (positions[i] < j) g |= util::index_t{1} << (k - 1 - i);
    }
    deltas[j] = g;
  }
}

/// Pairwise merge of two adjacent diagonal factors: the elementwise
/// product b∘a over the union of their supports.  Entry order follows the
/// left-to-right gate order (a applied first), using the same split
/// complex multiply as every other diagonal accumulation site.
template <typename T>
DiagFactor<T> mergeDiagonal(const DiagFactor<T>& a, const DiagFactor<T>& b) {
  DiagFactor<T> out;
  out.qubits.reserve(a.qubits.size() + b.qubits.size());
  std::set_union(a.qubits.begin(), a.qubits.end(), b.qubits.begin(),
                 b.qubits.end(), std::back_inserter(out.qubits));
  const int m = static_cast<int>(out.qubits.size());
  const std::size_t dim = std::size_t{1} << m;
  util::index_t dA[65], dB[65];
  fillGatherDeltas(a.qubits, out.qubits, dA);
  fillGatherDeltas(b.qubits, out.qubits, dB);
  out.d.resize(dim);
  const std::complex<T>* __restrict__ ad = a.d.data();
  const std::complex<T>* __restrict__ bd = b.d.data();
  std::complex<T>* __restrict__ od = out.d.data();
  util::index_t ga = 0, gb = 0;
  for (util::index_t r = 0;;) {
    const std::complex<T> va = ad[ga];
    const std::complex<T> g = bd[gb];
    od[r] = std::complex<T>(g.real() * va.real() - g.imag() * va.imag(),
                            g.real() * va.imag() + g.imag() * va.real());
    if (++r == dim) break;
    const int j = util::countTrailingZeros(r) + 1;
    ga ^= dA[j];
    gb ^= dB[j];
  }
  return out;
}

/// Materializes a diagonal block product over `window` via a deterministic
/// pairwise-adjacent tree over its factors: neighbors merge while their
/// union supports are still narrow, so long runs at a wide window cost
/// O(2^k log S) instead of the O(S 2^k) of left-fold accumulation.  Both
/// fuseGates and rebindFusionPlan materialize through THIS function — the
/// tree fixes the float association order once for both, which is what
/// keeps a rebound block bit-identical to a freshly fused one.
template <typename T>
std::vector<std::complex<T>> materializeDiagonal(
    std::vector<DiagFactor<T>> factors, const std::vector<int>& window) {
  util::require(!factors.empty(),
                "materializeDiagonal: no diagonal factors");
  while (factors.size() > 1) {
    std::vector<DiagFactor<T>> next;
    next.reserve((factors.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < factors.size(); i += 2) {
      next.push_back(mergeDiagonal(factors[i], factors[i + 1]));
    }
    if (factors.size() % 2 != 0) next.push_back(std::move(factors.back()));
    factors.swap(next);
  }
  if (factors.front().qubits == window) return std::move(factors.front().d);
  return embedDiagonalInWindow(factors.front().d, factors.front().qubits,
                               window);
}

/// Dense 2^k x 2^k matrix with `d` on the diagonal (used when a dense
/// gate joins a so-far-diagonal block under the legacy mixed merging).
template <typename T>
dense::Matrix<T> denseFromDiagonal(const std::vector<std::complex<T>>& d) {
  dense::Matrix<T> m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

/// Accumulates one block's product from a sequence of (gate, qubits,
/// window) steps.  fuseGates drives it while scheduling and records the
/// steps; rebindFusionPlan drives it again from the recorded steps — the
/// SAME member functions run in the same order, so a rebound block is
/// bit-identical to a freshly fused one.
template <typename T>
struct BlockBuilder {
  std::vector<int> support;            ///< current window (ascending)
  bool diagonal = true;                ///< all gates so far diagonal
  dense::Matrix<T> matrix;             ///< dense accumulation
  std::vector<DiagFactor<T>> factors;  ///< deferred diagonal factors
  std::size_t gatesIn = 0;

  bool open() const noexcept { return gatesIn > 0; }

  /// Starts the block with its first gate over window `window`.
  void start(const qgates::QGate<T>& gate, const std::vector<int>& qubits,
             std::vector<int> window) {
    support = std::move(window);
    diagonal = gate.isDiagonal();
    factors.clear();
    if (diagonal) {
      factors.push_back({diagonalOf(gate.matrix()), qubits});
      matrix = dense::Matrix<T>();
    } else {
      matrix = embedInWindow(gate.matrix(), qubits, support);
    }
    gatesIn = 1;
  }

  /// Merges the next gate; `window` is the (possibly grown) support.
  /// Diagonal-on-diagonal merges only record the factor — the table
  /// product is deferred to materializeDiagonal at finish time, so a run
  /// of S diagonal gates costs one tree product instead of S full-table
  /// multiply passes at the (possibly wide) window.
  void add(const qgates::QGate<T>& gate, const std::vector<int>& qubits,
           const std::vector<int>& window) {
    if (diagonal && gate.isDiagonal()) {
      support = window;
      factors.push_back({diagonalOf(gate.matrix()), qubits});
    } else {
      if (diagonal) {
        // First dense gate in a so-far-diagonal block (legacy mixed
        // merging only; separateDiagonalRuns never lets this happen).
        matrix = denseFromDiagonal(
            materializeDiagonal(std::move(factors), support));
        factors.clear();
        diagonal = false;
      }
      if (window != support) {
        matrix = embedInWindow(matrix, support, window);
        support = window;
      }
      matrix = embedInWindow(gate.matrix(), qubits, support) * matrix;
    }
    ++gatesIn;
  }

  /// Materializes the accumulated product into a block and resets.
  FusedBlock<T> finish(std::vector<FusedStep> steps) {
    FusedBlock<T> block;
    block.qubits = std::move(support);
    block.matrix = std::move(matrix);
    if (diagonal && !factors.empty()) {
      block.diag = materializeDiagonal(std::move(factors), block.qubits);
    }
    block.diagonal = diagonal;
    block.gatesIn = gatesIn;
    block.steps = std::move(steps);
    support.clear();
    matrix = dense::Matrix<T>();
    factors.clear();
    diagonal = true;
    gatesIn = 0;
    return block;
  }
};

}  // namespace detail

/// Greedily schedules `gates` (applied left to right) into fused blocks:
/// each gate joins the open block while the union of supports still fits
/// the window; otherwise the block is flushed and a new one starts.  Gates
/// wider than the window pass through as single-gate blocks.  With
/// separateDiagonalRuns, diagonal and dense gates never share a block;
/// each maximal run of consecutive diagonal gates is packed first-fit
/// into as few diagonalMaxQubits windows as the packing finds — a legal
/// reorder, since diagonal matrices commute elementwise exactly.
template <typename T>
FusionPlan<T> fuseGates(const std::vector<GateRef<T>>& gates, int nbQubits,
                        const FusionOptions& options = {}) {
  const obs::ScopedSpan span("fusion/plan", "stage");
  util::require(options.maxQubits >= 1,
                "fusion window must span at least one qubit");
  const int denseWindow = std::min(options.maxQubits, nbQubits);
  const int diagWindow =
      options.separateDiagonalRuns
          ? std::min(options.diagonalMaxQubits > 0 ? options.diagonalMaxQubits
                                                   : options.maxQubits,
                     nbQubits)
          : denseWindow;

  FusionPlan<T> plan;
  detail::BlockBuilder<T> builder;
  std::vector<FusedStep> steps;

  const auto flush = [&]() {
    if (!builder.open()) return;
    plan.blocks.push_back(builder.finish(std::move(steps)));
    steps.clear();
  };

  // Pending maximal run of consecutive diagonal gates (separated mode).
  // Diagonal matrices commute elementwise — exactly, even in floating
  // point — so the run may be PACKED first-fit into few wide windows
  // instead of split by greedy in-order growth: on a QAOA complete-graph
  // cost layer this cuts 7 fragmented 12-qubit blocks down to 3.  Fewer
  // blocks mean fewer full-state sweeps AND a cheaper rebind tree.
  std::vector<std::size_t> runIndices;
  std::vector<std::vector<int>> runQubits;
  const auto flushDiagonalRun = [&]() {
    if (runIndices.empty()) return;
    std::vector<bool> used(runIndices.size(), false);
    for (std::size_t i = 0; i < runIndices.size(); ++i) {
      if (used[i]) continue;
      std::vector<int> window = runQubits[i];
      std::vector<detail::DiagFactor<T>> factors;
      std::vector<FusedStep> blockSteps;
      factors.push_back(
          {detail::diagonalOf(gates[runIndices[i]].gate->matrix()),
           runQubits[i]});
      blockSteps.push_back({runIndices[i], runQubits[i], window});
      used[i] = true;
      for (std::size_t j = i + 1; j < runIndices.size(); ++j) {
        if (used[j]) continue;
        std::vector<int> merged;
        merged.reserve(window.size() + runQubits[j].size());
        std::set_union(window.begin(), window.end(), runQubits[j].begin(),
                       runQubits[j].end(), std::back_inserter(merged));
        if (static_cast<int>(merged.size()) > diagWindow) continue;
        window = std::move(merged);
        factors.push_back(
            {detail::diagonalOf(gates[runIndices[j]].gate->matrix()),
             runQubits[j]});
        blockSteps.push_back({runIndices[j], runQubits[j], window});
        used[j] = true;
      }
      FusedBlock<T> block;
      block.qubits = window;
      block.diag = detail::materializeDiagonal(std::move(factors), window);
      block.diagonal = true;
      block.gatesIn = blockSteps.size();
      block.steps = std::move(blockSteps);
      plan.blocks.push_back(std::move(block));
    }
    runIndices.clear();
    runQubits.clear();
  };

  for (std::size_t index = 0; index < gates.size(); ++index) {
    const auto& ref = gates[index];
    util::require(ref.gate != nullptr, "fuseGates: null gate reference");
    std::vector<int> qubits = ref.gate->qubits();
    for (int& q : qubits) q += ref.offset;
    util::checkQubit(qubits.front(), nbQubits);
    util::checkQubit(qubits.back(), nbQubits);

    const bool gateDiagonal = ref.gate->isDiagonal();
    if (options.separateDiagonalRuns && gateDiagonal &&
        static_cast<int>(qubits.size()) <= diagWindow) {
      // Close any open dense block, then let the diagonal run accumulate.
      flush();
      runIndices.push_back(index);
      runQubits.push_back(std::move(qubits));
      continue;
    }
    // A dense (or window-exceeding diagonal) gate ends the diagonal run.
    flushDiagonalRun();
    const int window = (options.separateDiagonalRuns && gateDiagonal)
                           ? diagWindow
                           : denseWindow;

    if (static_cast<int>(qubits.size()) > window) {
      // Wider than the window: emit unfused as its own block.
      flush();
      builder.start(*ref.gate, qubits, qubits);
      steps.push_back({index, qubits, qubits});
      flush();
      continue;
    }

    std::vector<int> merged;
    merged.reserve(builder.support.size() + qubits.size());
    std::set_union(builder.support.begin(), builder.support.end(),
                   qubits.begin(), qubits.end(), std::back_inserter(merged));
    if (static_cast<int>(merged.size()) > window) {
      flush();
      merged = qubits;
    }

    if (!builder.open()) {
      builder.start(*ref.gate, qubits, merged);
      steps.push_back({index, std::move(qubits), std::move(merged)});
    } else {
      builder.add(*ref.gate, qubits, merged);
      steps.push_back({index, std::move(qubits), std::move(merged)});
    }
  }
  flushDiagonalRun();
  flush();

  BlockingOptions blocking;
  blocking.enabled = options.blocking;
  blocking.blockQubits = options.blockQubits;
  blocking.minRunBlocks = options.minBlockRun;
  plan.schedule = buildBlockSchedule<T>(plan.blocks, nbQubits, blocking);
  return plan;
}

/// Recomputes every block product of `plan` from the CURRENT matrices of
/// `gates`, replaying each block's recorded recipe step by step.  Use
/// after mutating gate parameters (setTheta): a fusion plan captures gate
/// matrices at build time and does NOT see later parameter changes.  The
/// replay runs the exact accumulation sequence of fuseGates, so a rebound
/// plan is bit-identical to fusing the mutated gates from scratch — while
/// skipping the scheduling pass and reusing the block schedule (the
/// schedule depends only on gate supports, which rebinding cannot change).
///
/// `firstBlock` skips the rebind of leading blocks — callers that know a
/// prefix of the plan is parameter-invariant (the batched engine's cached
/// prefix) avoid rematerializing products that cannot have changed.
template <typename T>
void rebindFusionPlan(FusionPlan<T>& plan,
                      const std::vector<GateRef<T>>& gates,
                      std::size_t firstBlock = 0) {
  const obs::ScopedSpan span("fusion/rebind", "stage");
  detail::BlockBuilder<T> builder;
  for (std::size_t b = firstBlock; b < plan.blocks.size(); ++b) {
    auto& block = plan.blocks[b];
    util::require(!block.steps.empty(),
                  "rebindFusionPlan: plan has no recorded recipe");
    if (block.diagonal) {
      // Diagonal blocks: regather the per-gate factors and rerun the SAME
      // pairwise-tree product fuseGates materialized through — bit-
      // identical by sharing the code, and far cheaper than replaying S
      // full-table passes at the block's (possibly wide) window.
      std::vector<detail::DiagFactor<T>> factors;
      factors.reserve(block.steps.size());
      for (const auto& step : block.steps) {
        util::require(step.gateIndex < gates.size(),
                      "rebindFusionPlan: recipe gate index out of range");
        const auto& ref = gates[step.gateIndex];
        util::require(ref.gate != nullptr,
                      "rebindFusionPlan: null gate reference");
        factors.push_back(
            {detail::diagonalOf(ref.gate->matrix()), step.qubits});
      }
      block.diag =
          detail::materializeDiagonal(std::move(factors), block.qubits);
      continue;
    }
    bool first = true;
    for (const auto& step : block.steps) {
      util::require(step.gateIndex < gates.size(),
                    "rebindFusionPlan: recipe gate index out of range");
      const auto& ref = gates[step.gateIndex];
      util::require(ref.gate != nullptr,
                    "rebindFusionPlan: null gate reference");
      if (first) {
        builder.start(*ref.gate, step.qubits, step.window);
        first = false;
      } else {
        builder.add(*ref.gate, step.qubits, step.window);
      }
    }
    std::vector<FusedStep> steps = std::move(block.steps);
    const std::vector<int> qubits = std::move(block.qubits);
    block = builder.finish(std::move(steps));
    util::require(block.qubits == qubits,
                  "rebindFusionPlan: recipe window drifted from the plan");
  }
}

namespace detail {

/// Applies one fused block with its own full-state sweep: diagonal blocks
/// go through the run-structured diagonal sweep, dense blocks through
/// apply1/apply2/applyK.
template <typename State, typename T>
void applyFusedBlock(State& state, int nbQubits,
                     const FusedBlock<T>& block, std::uint64_t bytes) {
  if (block.diagonal) {
    const obs::PathTimer timer(KernelPath::kFusedDiagonalK);
    applyDiagonalBlock(state, nbQubits, block.qubits, block.diag);
    obs::metrics().countGate(KernelPath::kFusedDiagonalK, nullptr, bytes);
  } else if (block.qubits.size() == 1) {
    const obs::PathTimer timer(KernelPath::kFusedDenseK);
    apply1(state, nbQubits, block.qubits.front(), block.matrix);
    obs::metrics().countGate(KernelPath::kFusedDenseK, nullptr, bytes);
  } else if (block.qubits.size() == 2) {
    const obs::PathTimer timer(KernelPath::kFusedDenseK);
    apply2(state, nbQubits, block.qubits[0], block.qubits[1], block.matrix);
    obs::metrics().countGate(KernelPath::kFusedDenseK, nullptr, bytes);
  } else {
    const obs::PathTimer timer(KernelPath::kFusedDenseK);
    applyK(state, nbQubits, block.qubits, block.matrix);
    obs::metrics().countGate(KernelPath::kFusedDenseK, nullptr, bytes);
  }
  obs::flightRecorder().record(
      obs::FlightEventKind::kFusedBlock,
      static_cast<std::uint16_t>(block.diagonal
                                     ? KernelPath::kFusedDiagonalK
                                     : KernelPath::kFusedDenseK),
      obs::qubitMask64(block.qubits),
      static_cast<std::uint32_t>(block.gatesIn));
}

}  // namespace detail

/// Applies a fusion plan to the state.  Blocked runs in the plan's
/// schedule execute as ONE streamed chunked sweep each (counted as
/// kBlocked with one sweep's worth of bytes — so their effective GB/s in
/// the obs report measures the blocking win and can exceed DRAM
/// bandwidth); all other blocks get one full sweep each through the
/// fused-path kernels.  Block applications and the plan's fusion stats
/// are recorded in obs::metrics(), and each sweep is timed into the
/// per-path latency histograms (by kernel path only; the per-kind
/// counters stay an InstrumentedBackend concern).
///
/// Re-entrant: `plan` is read-only and all scratch is local, so many
/// threads may apply the same plan to their own states concurrently.
///
/// `[firstBlock, lastBlock)` restricts the application to a block range
/// (the batched engine applies its parameter-free prefix once, then each
/// member applies the rest).  A blocked run straddling either end
/// degrades to per-block full sweeps for its part in range — bit-identical
/// to the chunked sweep because kernel path choice never depends on the
/// chunk length, only on qubit positions.  Fusion counters cover only the
/// blocks actually applied.
template <typename State, typename T>
void applyFusionPlan(
    State& state, int nbQubits, const FusionPlan<T>& plan,
    std::size_t firstBlock = 0,
    std::size_t lastBlock = std::numeric_limits<std::size_t>::max()) {
  lastBlock = std::min(lastBlock, plan.blocks.size());
  const std::uint64_t bytes =
      2 * static_cast<std::uint64_t>(state.size()) * sizeof(std::complex<T>);
  if (plan.schedule.items.empty()) {
    for (std::size_t i = firstBlock; i < lastBlock; ++i) {
      detail::applyFusedBlock(state, nbQubits, plan.blocks[i], bytes);
    }
  } else {
    for (const auto& item : plan.schedule.items) {
      const std::size_t begin = std::max(item.first, firstBlock);
      const std::size_t end = std::min(item.first + item.count, lastBlock);
      if (begin >= end) continue;
      if (item.blocked && begin == item.first &&
          end == item.first + item.count) {
        const obs::PathTimer timer(KernelPath::kBlocked);
        applyBlockedRun(state, nbQubits, plan.blocks, item.first, item.count,
                        plan.schedule.blockQubits);
        obs::metrics().countGate(KernelPath::kBlocked, nullptr, bytes);
        obs::flightRecorder().record(
            obs::FlightEventKind::kBlockedRun,
            static_cast<std::uint16_t>(KernelPath::kBlocked),
            /*qubitMask=*/0, static_cast<std::uint32_t>(item.count));
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          detail::applyFusedBlock(state, nbQubits, plan.blocks[i], bytes);
        }
      }
    }
  }
  FusionStats stats;
  for (std::size_t i = firstBlock; i < lastBlock; ++i) {
    stats.gatesIn += plan.blocks[i].gatesIn;
    ++stats.blocksOut;
  }
  stats.sweepsSaved = stats.gatesIn - stats.blocksOut;
  obs::metrics().add(obs::Counter::kFusionGatesIn, stats.gatesIn);
  obs::metrics().add(obs::Counter::kFusionBlocks, stats.blocksOut);
  obs::metrics().add(obs::Counter::kFusionSweepsSaved, stats.sweepsSaved);
}

}  // namespace qclab::sim
