/// \file bench_obs_overhead.cpp
/// \brief Self-enforcing overhead budget of the observability layer.
///
/// Simulates the GHZ workload (H + chained CX, default n=20) through the
/// plain default backend and through the fully metered v4 path — an
/// InstrumentedBackend with perf-counter sampling, the always-on flight
/// recorder, AND the numerical-health sentinels (kLog policy) enabled —
/// in interleaved plain/instrumented PAIRS.  The obs machinery is toggled
/// around each timed call so the plain side pays none of the v4 cost and
/// the instrumented side pays all of it.
///
/// Each pair yields one overhead ratio; the verdict is the MEDIAN OF THE
/// PER-PAIR RATIOS over at least 5 pairs, not a ratio of two medians.  A
/// single slow outlier run (page cache miss, scheduler hiccup) lands in
/// one pair and is voted out by the other pairs' ratios, where the old
/// ratio-of-medians could tip the whole verdict on one noisy side.  The
/// median ratio must stay within `--max-overhead` (default 3%) of 1.0; a
/// breach is re-measured once with doubled pairs and then fails the
/// process with exit 1, which qclab_bench_trajectory propagates into the
/// bench-regression gate.
///
/// Both sides run with fusion off: the bench measures per-gate metering,
/// and an instrumented backend is never fused, so a default-options plain
/// side would time fused sweeps against per-gate ones.
///
/// Under QCLAB_OBS_DISABLED both sides compile to the same plain run, so
/// the ratio sits at ~1.0 and the binary doubles as a no-op check in the
/// obs-disabled CI leg.
///
/// Flags: --n <qubits>, --samples <pairs>, --max-overhead <frac>
/// (QCLAB_OBS_OVERHEAD_TOL overrides the default), plus the shared
/// --obs-json <path>.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "qclab/qclab.hpp"
#include "obs_cli.hpp"

namespace {

using T = double;

qclab::QCircuit<T> ghz(int n) {
  qclab::QCircuit<T> circuit(n);
  circuit.push_back(std::make_unique<qclab::qgates::Hadamard<T>>(0));
  for (int q = 1; q < n; ++q) {
    circuit.push_back(std::make_unique<qclab::qgates::CNOT<T>>(q - 1, q));
  }
  return circuit;
}

/// Wall ns of one unfused simulate from |0...0> through `backend`.
double timeOnce(const qclab::QCircuit<T>& circuit,
                const std::vector<std::complex<T>>& initial,
                const qclab::sim::Backend<T>& backend) {
  qclab::SimulateOptions options;
  options.fusion = false;
  const auto begin = std::chrono::steady_clock::now();
  auto simulation = circuit.simulate(initial, options, backend);
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Puts the obs layer in the state whose cost the next timed run should
/// measure: everything v4 pays on the instrumented side (flight recorder
/// on, sentinels logging at the default cadence), nothing on the plain
/// side.
void setObsActive(bool active) {
  if (active) {
    qclab::obs::flightRecorder().enable();
    qclab::obs::SentinelConfig config;  // kLog, default interval/tolerance
    qclab::obs::sentinel().configure(config);
  } else {
    qclab::obs::flightRecorder().disable();
    qclab::obs::SentinelConfig config;
    config.policy = qclab::obs::SentinelPolicy::kOff;
    qclab::obs::sentinel().configure(config);
  }
}

struct OverheadSample {
  double plainNs = 0.0;         ///< median of the plain pair halves
  double instrumentedNs = 0.0;  ///< median of the instrumented halves
  double ratio = 0.0;           ///< MEDIAN of the per-pair ratios
};

/// Interleaved plain/instrumented pairs: the two halves of a pair run
/// back to back, so slow drift (thermal, noisy neighbors) hits both
/// sides of each ratio equally, and the median over pair ratios rejects
/// outlier pairs entirely.
OverheadSample measure(const qclab::QCircuit<T>& circuit,
                       const std::vector<std::complex<T>>& initial,
                       const qclab::sim::Backend<T>& plain,
                       const qclab::sim::Backend<T>& instrumented,
                       int pairs) {
  setObsActive(false);
  timeOnce(circuit, initial, plain);  // warm pages + caches
  setObsActive(true);
  timeOnce(circuit, initial, instrumented);  // warm the obs registries too
  std::vector<double> plainNs;
  std::vector<double> instrumentedNs;
  std::vector<double> ratios;
  plainNs.reserve(static_cast<std::size_t>(pairs));
  instrumentedNs.reserve(static_cast<std::size_t>(pairs));
  ratios.reserve(static_cast<std::size_t>(pairs));
  for (int s = 0; s < pairs; ++s) {
    setObsActive(false);
    const double plainRun = timeOnce(circuit, initial, plain);
    setObsActive(true);
    const double instrumentedRun = timeOnce(circuit, initial, instrumented);
    plainNs.push_back(plainRun);
    instrumentedNs.push_back(instrumentedRun);
    ratios.push_back(plainRun > 0.0 ? instrumentedRun / plainRun : 1.0);
  }
  setObsActive(false);
  OverheadSample out;
  out.plainNs = median(plainNs);
  out.instrumentedNs = median(instrumentedNs);
  out.ratio = median(ratios);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string obsJsonPath =
      qclab::benchutil::extractObsJsonPath(argc, argv);
  qclab::benchutil::initObsRun(obsJsonPath);
  // The instrumented side must pay the full metered cost — perf sampling
  // on — whether or not an export was requested.  The flight recorder and
  // sentinels are toggled per pair half by setObsActive().
  qclab::obs::perfRegistry().enable();

  int n = 20;
  int pairs = 15;
  double maxOverhead = 0.03;
  if (const char* tol = std::getenv("QCLAB_OBS_OVERHEAD_TOL")) {
    const double value = std::atof(tol);
    if (value > 0.0) maxOverhead = value;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      pairs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-overhead") == 0 &&
               i + 1 < argc) {
      maxOverhead = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      n = 16;
      pairs = 7;
    }
  }
  if (n < 2) n = 2;
  if (pairs < 5) pairs = 5;  // a median of ratios needs a real sample

  const auto circuit = ghz(n);
  const auto initial = qclab::basisState<T>(
      std::string(static_cast<std::size_t>(n), '0'));
  const auto& plain = qclab::sim::defaultBackend<T>();
  const qclab::obs::InstrumentedBackend<T> instrumented(plain);

  OverheadSample result =
      measure(circuit, initial, plain, instrumented, pairs);
  if (result.ratio > 1.0 + maxOverhead) {
    // One noise-resistant retry before declaring a real regression.
    std::fprintf(stderr,
                 "bench_obs_overhead: ratio %.4f over budget, re-measuring "
                 "with %d pairs\n",
                 result.ratio, 2 * pairs);
    result = measure(circuit, initial, plain, instrumented, 2 * pairs);
  }

  const std::string suffix = "/ghz/n=" + std::to_string(n);
  std::printf("bench_obs_overhead: ghz n=%d, %d pairs\n", n, pairs);
  std::printf("  plain        %12.0f ns/run\n", result.plainNs);
  std::printf("  instrumented %12.0f ns/run (flight + sentinel on)\n",
              result.instrumentedNs);
  std::printf("  overhead     %12.4f x median-of-ratios (budget %.2f)\n",
              result.ratio, 1.0 + maxOverhead);

  qclab::obs::Report report("bench_obs_overhead");
  report.add("simulate-plain" + suffix, result.plainNs, "ns/op");
  report.add("simulate-instrumented" + suffix, result.instrumentedNs,
             "ns/op");
  report.add("overhead" + suffix, result.ratio, "x");
  if (!obsJsonPath.empty() && !report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }

  if (result.ratio > 1.0 + maxOverhead) {
    std::fprintf(stderr,
                 "bench_obs_overhead: FAIL — instrumented simulate is "
                 "%.2f%% slower than plain (budget %.0f%%)\n",
                 (result.ratio - 1.0) * 100.0, maxOverhead * 100.0);
    return 1;
  }
  return 0;
}
