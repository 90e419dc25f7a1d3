#pragma once

/// \file dispatch.hpp
/// \brief Adaptive multi-backend dispatch: statevector ↔ CHP stabilizer
/// tableau.
///
/// Three pieces (ROADMAP "adaptive dispatch layer"):
///
///  1. analyzeCircuit — one pass over a circuit's flat op list
///     (QCircuit::flatten) that rejects an op outside the register with
///     QubitRangeError and produces a gate census, the Clifford fraction,
///     and the length of the leading run of tableau-executable ops (the
///     "Clifford prefix").  Gate classification probes the exact code path
///     the executor uses (stabilizer::isCliffordGate), so analyzer and
///     executor cannot disagree.
///
///  2. DispatchRunner — the tableau route of SimulateOptions::dispatch.
///     The Clifford prefix runs on the tableau in O(n^2) per op, forking
///     branches at random (exactly 50/50) measurements to reproduce the
///     statevector branch tree bit for bit; at the first non-Clifford op
///     every branch tableau expands into a statevector (the CHP-style
///     conversion point, O(2^rank) amplitudes) and the remaining suffix
///     is compiled and run by sim::execute, like QCircuit::simulate.  When
///     the tableau does not pay off, or a typed UnsupportedGateError
///     surfaces in the tableau phase, the router declines and simulate
///     runs the circuit on its own statevector pipeline.
///
///  3. dispatchSampleCounts — the at-scale API: counts-level sampling of
///     fully Clifford circuits (QEC rounds at hundreds of qubits) that
///     never materializes amplitudes.  Shots are partitioned into fixed
///     chunks, one random::Rng jump stream per chunk, so the histogram is
///     identical for every OMP thread count.
///
/// obs integration: `dispatch/analyze` and `dispatch/convert` stage spans,
/// KernelPath::kStabilizer per tableau gate, KernelPath::kDispatch latency
/// per routed execution, and route / fallback / conversion counters
/// surfaced in the obs JSON report (schema "qclab-obs-v5") and the
/// OpenMetrics export.

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/qcircuit.hpp"
#include "qclab/sim/dispatch_mode.hpp"
#include "qclab/sim/parallel.hpp"
#include "qclab/stabilizer/apply.hpp"
#include "qclab/util/bits.hpp"

namespace qclab::sim {

// ---- circuit analysis ----------------------------------------------------

/// What one analyzer pass learned about a circuit.
template <typename T>
struct CircuitAnalysis {
  int nbQubits = 0;
  /// Elementary ops (gates, measurements, resets, barriers) in execution
  /// order — sub-circuits are flattened away.
  std::vector<FlatOp<T>> ops;
  std::size_t nbGates = 0;
  std::size_t nbCliffordGates = 0;
  std::size_t nbMeasurements = 0;
  std::size_t nbResets = 0;
  /// Number of leading ops executable on the tableau (the conversion
  /// point index).  Equals ops.size() when the whole circuit is Clifford.
  std::size_t cliffordPrefixOps = 0;
  /// True when every op runs on the tableau (no conversion needed).
  bool fullyClifford = false;
  /// Clifford gates / gates; 1.0 for gate-free circuits.
  double cliffordFraction = 1.0;
  /// Op histogram keyed like QCircuit::gateCounts (gate mnemonic, or
  /// "measure" / "reset" / "barrier").
  std::map<std::string, std::size_t> census;
};

/// Analyzes `circuit` in a single pass: flat op list, gate census,
/// Clifford fraction, and the tableau-executable prefix length.
template <typename T>
CircuitAnalysis<T> analyzeCircuit(const QCircuit<T>& circuit) {
  CircuitAnalysis<T> analysis;
  analysis.nbQubits = circuit.nbQubits();
  analysis.ops = circuit.flatten();
  bool cliffordSoFar = true;
  for (std::size_t index = 0; index < analysis.ops.size(); ++index) {
    const QObject<T>& object = *analysis.ops[index].object;
    // An op outside the register is a QubitRangeError on every route.
    const int offset = analysis.ops[index].offset;
    util::checkQubit(object.minQubit() + offset, analysis.nbQubits);
    util::checkQubit(object.maxQubit() + offset, analysis.nbQubits);
    ++analysis.census[opKindLabel(object)];
    bool supported = true;
    switch (object.objectType()) {
      case ObjectType::kGate: {
        const auto& gate = static_cast<const qgates::QGate<T>&>(object);
        ++analysis.nbGates;
        supported = stabilizer::isCliffordGate(gate);
        if (supported) ++analysis.nbCliffordGates;
        break;
      }
      case ObjectType::kMeasurement:
        ++analysis.nbMeasurements;
        supported = static_cast<const Measurement<T>&>(object).basis() !=
                    Basis::kCustom;
        break;
      case ObjectType::kReset:
        ++analysis.nbResets;
        break;
      default:
        break;
    }
    if (cliffordSoFar && supported) {
      analysis.cliffordPrefixOps = index + 1;
    } else {
      cliffordSoFar = false;
    }
  }
  analysis.fullyClifford = analysis.cliffordPrefixOps == analysis.ops.size();
  analysis.cliffordFraction =
      analysis.nbGates == 0
          ? 1.0
          : static_cast<double>(analysis.nbCliffordGates) /
                static_cast<double>(analysis.nbGates);
  return analysis;
}

// ---- tableau -> statevector conversion -----------------------------------

/// Number of amplitudes an n-qubit tableau expands into; throws past 30
/// qubits, before anything is allocated.
inline std::size_t tableauStateDim(int n) {
  util::require(n <= 30,
                "tableau -> statevector expansion needs 2^n amplitudes; "
                "capped at 30 qubits");
  return stateDim<double>(n);
}

/// Expands a stabilizer tableau into the 2^n statevector it represents,
/// written into `state`, which must hold 2^n zeroed amplitudes (a fresh
/// StateBuffer<T>::zeros on any tier); only the support is written.
///
/// Gaussian elimination over the stabilizer X-block yields `rank`
/// X-bearing generators (the state has 2^rank support states of magnitude
/// (1/sqrt(2))^rank each) and n-rank Z-only generators whose sign bits pin
/// one support basis state; the support is then enumerated by applying the
/// X-bearing generators with exact {±1, ±i} Pauli phase tracking.  The
/// anchor amplitude is real positive (global-phase convention); the
/// magnitude is computed as `rank` successive multiplications by 1/sqrt(2)
/// to reproduce the statevector path's Hadamard-cascade rounding bit for
/// bit.
template <typename T>
void tableauToStatevector(const stabilizer::Tableau& tableau,
                          StateSpan<T> state) {
  const int n = tableau.nbQubits();
  util::require(state.size() == tableauStateDim(n),
                "tableauToStatevector: state must hold 2^n amplitudes");
  using util::index_t;

  /// i^phase * product of per-qubit Paulis (Y where both masks set).
  struct Row {
    index_t x = 0;
    index_t z = 0;
    int phase = 0;  ///< exponent of i, 0..3 (stabilizers: 0 or 2)
  };
  std::vector<Row> rows(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    Row& row = rows[static_cast<std::size_t>(k)];
    for (int q = 0; q < n; ++q) {
      const index_t bit = index_t{1} << util::bitPosition(q, n);
      if (tableau.stabilizerX(k, q)) row.x |= bit;
      if (tableau.stabilizerZ(k, q)) row.z |= bit;
    }
    row.phase = tableau.stabilizerSign(k) ? 2 : 0;
  }

  // h := h * g with the same per-qubit phase bookkeeping as
  // Tableau::rowsum (phaseG), expressed on bitmask rows.
  const auto multiplyInto = [n](Row& h, const Row& g) {
    int phase = h.phase + g.phase;
    for (int p = 0; p < n; ++p) {
      const int x1 = static_cast<int>((g.x >> p) & 1);
      const int z1 = static_cast<int>((g.z >> p) & 1);
      const int x2 = static_cast<int>((h.x >> p) & 1);
      const int z2 = static_cast<int>((h.z >> p) & 1);
      if (x1 == 0 && z1 == 0) continue;
      if (x1 == 1 && z1 == 1) phase += z2 - x2;        // Y * P
      else if (x1 == 1) phase += z2 * (2 * x2 - 1);    // X * P
      else phase += x2 * (1 - 2 * z2);                 // Z * P
    }
    h.x ^= g.x;
    h.z ^= g.z;
    h.phase = ((phase % 4) + 4) % 4;
  };

  // Reduced row echelon over the X-block: rows[0..rank) carry X on
  // distinct pivot columns, rows[rank..n) are Z-only.
  int rank = 0;
  for (int q = 0; q < n && rank < n; ++q) {
    const index_t bit = index_t{1} << util::bitPosition(q, n);
    int pivot = -1;
    for (int k = rank; k < n; ++k) {
      if (rows[static_cast<std::size_t>(k)].x & bit) {
        pivot = k;
        break;
      }
    }
    if (pivot < 0) continue;
    std::swap(rows[static_cast<std::size_t>(rank)],
              rows[static_cast<std::size_t>(pivot)]);
    for (int k = 0; k < n; ++k) {
      if (k != rank && (rows[static_cast<std::size_t>(k)].x & bit)) {
        multiplyInto(rows[static_cast<std::size_t>(k)],
                     rows[static_cast<std::size_t>(rank)]);
      }
    }
    ++rank;
  }

  // Solve the Z-only sign constraints parity(v & z) == sign for one
  // support basis state `base` (free variables zero).
  std::vector<std::pair<index_t, int>> constraints;
  constraints.reserve(static_cast<std::size_t>(n - rank));
  for (int k = rank; k < n; ++k) {
    const Row& row = rows[static_cast<std::size_t>(k)];
    util::require(row.phase == 0 || row.phase == 2,
                  "stabilizer sign is not real (internal inconsistency)");
    constraints.emplace_back(row.z, row.phase == 2 ? 1 : 0);
  }
  std::vector<std::pair<std::size_t, index_t>> pivots;  // (row, bit)
  std::size_t firstOpen = 0;
  for (int p = 0; p < n && firstOpen < constraints.size(); ++p) {
    const index_t bit = index_t{1} << p;
    std::size_t found = constraints.size();
    for (std::size_t k = firstOpen; k < constraints.size(); ++k) {
      if (constraints[k].first & bit) {
        found = k;
        break;
      }
    }
    if (found == constraints.size()) continue;
    std::swap(constraints[firstOpen], constraints[found]);
    for (std::size_t k = 0; k < constraints.size(); ++k) {
      if (k != firstOpen && (constraints[k].first & bit)) {
        constraints[k].first ^= constraints[firstOpen].first;
        constraints[k].second ^= constraints[firstOpen].second;
      }
    }
    pivots.emplace_back(firstOpen, bit);
    ++firstOpen;
  }
  index_t base = 0;
  for (const auto& [row, bit] : pivots) {
    if (constraints[row].second) base |= bit;
  }

  // Anchor magnitude: rank successive 1/sqrt(2) factors.
  T magnitude = T(1);
  const T invSqrt2 = T(1) / std::sqrt(T(2));
  for (int k = 0; k < rank; ++k) magnitude *= invSqrt2;

  const auto amplitude = [magnitude](int phase) {
    switch (phase & 3) {
      case 0: return std::complex<T>(magnitude, T(0));
      case 1: return std::complex<T>(T(0), magnitude);
      case 2: return std::complex<T>(-magnitude, T(0));
      default: return std::complex<T>(T(0), -magnitude);
    }
  };
  // i-exponent of applying generator g to |v>:  i^{g.phase} * i^{#Y} *
  // (-1)^{popcount(v & z)}  (X flips bits, handled by the caller).
  const auto generatorPhase = [](const Row& g, index_t v) {
    const int yCount = std::popcount(g.x & g.z);
    const int zParity = static_cast<int>(std::popcount(v & g.z) & 1);
    return (g.phase + yCount + 2 * zParity) & 3;
  };
  // Enumerate the 2^rank support states: the X-parts of rows[0..rank) are
  // linearly independent, so each subset reaches a distinct basis state.
  const auto emit = [&](auto&& self, int k, index_t v, int phase) -> void {
    if (k == rank) {
      state[v] = amplitude(phase);
      return;
    }
    const Row& g = rows[static_cast<std::size_t>(k)];
    self(self, k + 1, v, phase);
    self(self, k + 1, v ^ g.x, (phase + generatorPhase(g, v)) & 3);
  };
  emit(emit, 0, base, 0);
}

/// The expansion above into a fresh heap vector.
template <typename T>
std::vector<std::complex<T>> tableauToStatevector(
    const stabilizer::Tableau& tableau) {
  std::vector<std::complex<T>> state(tableauStateDim(tableau.nbQubits()));
  tableauToStatevector<T>(tableau, state);
  return state;
}

// ---- the router ----------------------------------------------------------

/// The tableau route of QCircuit::simulate (bits overload) when the
/// resolved dispatch mode is kAuto or kStabilizer.
template <typename T>
class DispatchRunner {
 public:
  /// Runs `circuit` from |bits> with a tableau prefix, or returns
  /// std::nullopt when it belongs on the plain statevector pipeline: a
  /// Clifford prefix too short to amortize a tableau under kAuto, or the
  /// UnsupportedGateError fallback.  QCircuit::simulate then carries on
  /// with its own statevector run, so a declined circuit gets exactly the
  /// state tier, fusion, and metering of a kStatevector request.
  static std::optional<Simulation<T>> simulate(const QCircuit<T>& circuit,
                                               const std::string& bits,
                                               const SimulateOptions& options,
                                               const Backend<T>& backend,
                                               DispatchMode mode) {
    CircuitAnalysis<T> analysis;
    {
      const obs::ScopedSpan span("dispatch/analyze");
      analysis = analyzeCircuit(circuit);
    }
    if (mode == DispatchMode::kAuto &&
        analysis.cliffordPrefixOps <
            static_cast<std::size_t>(
                options.dispatchOptions.minCliffordPrefixOps)) {
      return std::nullopt;  // too short to amortize a tableau
    }
    try {
      return tableauRun(bits, options, backend, analysis);
    } catch (const UnsupportedGateError&) {
      // The analyzer probes the executor's own code path, so this only
      // fires if the two ever drift — the typed error is the contract
      // that dispatch never fails where the statevector path would not.
      obs::metrics().add(obs::Counter::kDispatchFallbacks);
      return std::nullopt;
    }
  }

 private:
  /// One tableau-side branch, mirroring sim Branch minus the state.
  struct TableauBranch {
    stabilizer::Tableau tableau;
    double probability = 1.0;
    std::string result;
    std::vector<std::pair<int, int>> measurements;
  };

  static Simulation<T> tableauRun(const std::string& bits,
                                  const SimulateOptions& options,
                                  const Backend<T>& backend,
                                  const CircuitAnalysis<T>& analysis) {
    const int n = analysis.nbQubits;
    obs::metrics().add(obs::Counter::kCircuitSimulations);
    const obs::ScopedSpan span("simulate");
    const obs::PathTimer timer(KernelPath::kDispatch);
    const obs::ScopedSpan executeSpan("execute");

    std::vector<TableauBranch> branches;
    branches.push_back({stabilizer::Tableau(n), 1.0, {}, {}});
    for (int q = 0; q < n; ++q) {
      if (bits[static_cast<std::size_t>(q)] == '1') {
        branches.front().tableau.x(q);
      }
    }

    // ---- Clifford prefix on the tableau, forking at 50/50 outcomes ----
    for (std::size_t index = 0; index < analysis.cliffordPrefixOps;
         ++index) {
      const FlatOp<T>& op = analysis.ops[index];
      switch (op.object->objectType()) {
        case ObjectType::kGate: {
          const auto& gate = static_cast<const qgates::QGate<T>&>(*op.object);
          for (auto& branch : branches) {
            stabilizer::detail::applyMeteredGate(branch.tableau, gate,
                                                 op.offset);
          }
          break;
        }
        case ObjectType::kMeasurement:
        case ObjectType::kReset:
          branches = splitBranches(branches, op, n);
          break;
        default:
          break;
      }
    }

    // ---- conversion point: expand every branch tableau ----------------
    std::vector<Branch<T>> converted;
    {
      const obs::ScopedSpan convertSpan("dispatch/convert");
      converted.reserve(branches.size());
      for (auto& branch : branches) {
        Branch<T> out;
        out.state = StateBuffer<T>::zeros(tableauStateDim(n),
                                          options.stateTier);
        tableauToStatevector<T>(branch.tableau, out.state);
        out.probability = branch.probability;
        out.result = std::move(branch.result);
        out.measurements = std::move(branch.measurements);
        obs::metrics().add(obs::Counter::kDispatchConversions);
        converted.push_back(std::move(out));
      }
    }
    Simulation<T> simulation(n, {});
    simulation.branches() = std::move(converted);

    // ---- non-Clifford suffix on the statevector pipeline --------------
    execute(simulation,
            compile(analysis.ops, analysis.cliffordPrefixOps, n,
                    resolveFusion(options.fusion, options.fusionOptions,
                                  backend, n)),
            backend);
    obs::metrics().countDispatchRoute(
        analysis.fullyClifford ? DispatchRoute::kStabilizer
                               : DispatchRoute::kHybrid);
    return simulation;
  }

  /// The tableau twin of sim::splitBranches: measures or resets one qubit
  /// on every branch.  A determined outcome is forced (the statevector
  /// path prunes the impossible one); a random outcome is exactly 50/50
  /// and forks, outcome 0 first (statevector order).  A measurement
  /// records its outcome; a reset records nothing and flips outcome 1
  /// back to |0>.
  static std::vector<TableauBranch> splitBranches(
      std::vector<TableauBranch>& branches, const FlatOp<T>& op, int n) {
    const auto* measurement =
        op.object->objectType() == ObjectType::kMeasurement
            ? static_cast<const Measurement<T>*>(op.object)
            : nullptr;
    const int qubit = op.object->minQubit() + op.offset;
    util::checkQubit(qubit, n);
    std::vector<TableauBranch> next;
    next.reserve(branches.size());
    const auto settle = [&](TableauBranch branch, int outcome) {
      if (measurement != nullptr) {
        stabilizer::detail::applyMeasurementBasisChange(
            branch.tableau, *measurement, qubit, true);
        branch.result += static_cast<char>('0' + outcome);
        branch.measurements.emplace_back(qubit, outcome);
      } else if (outcome == 1) {
        branch.tableau.x(qubit);
      }
      next.push_back(std::move(branch));
    };
    const auto fork = [&](TableauBranch branch, int outcome) {
      branch.tableau.measureForced(qubit, outcome);
      branch.probability *= 0.5;
      settle(std::move(branch), outcome);
    };
    for (auto& branch : branches) {
      if (measurement != nullptr) {
        stabilizer::detail::applyMeasurementBasisChange(
            branch.tableau, *measurement, qubit, false);
      }
      if (branch.tableau.isDeterministic(qubit)) {
        obs::metrics().add(obs::Counter::kBranchPrunes);
        const int outcome = branch.tableau.measureForced(qubit, 0);
        settle(std::move(branch), outcome);
      } else {
        obs::metrics().add(obs::Counter::kBranchSpawns);
        fork(branch, 0);
        fork(std::move(branch), 1);
      }
    }
    return next;
  }
};

// ---- counts-level sampling at scale --------------------------------------

/// Shots per random::Rng jump stream in dispatchSampleCounts.  Fixed so
/// the chunk -> stream mapping (and thus the histogram) is independent of
/// the OMP thread count.
inline constexpr std::uint64_t kDispatchShotChunk = 256;

/// Samples `shots` measurement-outcome strings of a fully Clifford
/// circuit on the tableau engine — never materializing amplitudes, so
/// QEC-round workloads scale to hundreds of qubits.  Shot chunks map to
/// random::Rng::jumpStreams(seed, ...) streams and merge in chunk order:
/// the same seed yields the same histogram for every thread count.
/// Throws UnsupportedGateError when the circuit has a non-Clifford gate
/// or a custom-basis measurement.
template <typename T>
std::map<std::string, std::uint64_t> dispatchSampleCounts(
    const QCircuit<T>& circuit, std::uint64_t shots, std::uint64_t seed) {
  CircuitAnalysis<T> analysis;
  {
    const obs::ScopedSpan span("dispatch/analyze");
    analysis = analyzeCircuit(circuit);
  }
  const int n = circuit.nbQubits();
  if (!analysis.fullyClifford) {
    throw UnsupportedGateError(
        "dispatchSampleCounts requires a fully Clifford circuit (use "
        "QCircuit::simulate + Simulation::counts otherwise)");
  }
  obs::metrics().countDispatchRoute(DispatchRoute::kStabilizer);
  obs::metrics().add(obs::Counter::kShotsSampled, shots);
  const obs::ScopedSpan span("dispatch");
  const std::size_t nbChunks = static_cast<std::size_t>(
      (shots + kDispatchShotChunk - 1) / kDispatchShotChunk);
  std::vector<random::Rng> streams =
      random::Rng::jumpStreams(seed, nbChunks);
  std::vector<std::map<std::string, std::uint64_t>> partial(nbChunks);

  const std::int64_t count = static_cast<std::int64_t>(nbChunks);
  parallelFor(count, count, 2, [&](std::int64_t c) {
    const std::size_t chunk = static_cast<std::size_t>(c);
    random::Rng& rng = streams[chunk];
    const std::uint64_t begin = chunk * kDispatchShotChunk;
    const std::uint64_t end =
        begin + kDispatchShotChunk < shots ? begin + kDispatchShotChunk
                                           : shots;
    auto& histogram = partial[chunk];
    for (std::uint64_t shot = begin; shot < end; ++shot) {
      stabilizer::Tableau tableau(n);
      ++histogram[stabilizer::detail::runShot(analysis.ops, tableau, rng)];
    }
  });

  std::map<std::string, std::uint64_t> histogram;
  for (const auto& chunk : partial) {
    for (const auto& [outcomes, hits] : chunk) {
      histogram[outcomes] += hits;
    }
  }
  return histogram;
}

}  // namespace qclab::sim
