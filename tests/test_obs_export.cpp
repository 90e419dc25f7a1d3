/// \file test_obs_export.cpp
/// \brief Export contract of the obs layer: one fixed workload touching
/// every counter family, then
///  - every row of the counter table (QCLAB_OBS_COUNTERS, metrics.hpp)
///    appears under its name, with the registry's value, in the
///    OpenMetrics exposition, the JSON report and the crash dump,
///  - the OpenMetrics families and the non-timing JSON key paths are
///    exactly the committed lists (a lost or an unlisted series fails
///    here),
///  - an mmap request that falls back to the heap tier is counted,
///  - one report's bandwidth agrees with its own bytes and timings while
///    another thread keeps recording.
/// Runs in both builds: a QCLAB_OBS_DISABLED build exports the same
/// families with zero values.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include "qclab/obs/benchjson.hpp"
#include "qclab/qclab.hpp"

namespace {

using T = double;
using namespace qclab;
namespace bj = qclab::obs::benchjson;

// The roofline calibration is outside this contract: skip its triad so
// every test here stays fast, also under ThreadSanitizer, where the
// triad's OpenMP sweep is reported through libgomp's uninstrumented
// barriers.
[[maybe_unused]] const int kNoRoofline =
    ::setenv("QCLAB_OBS_NO_ROOFLINE", "1", 0);

QCircuit<T> ghz(int n) {
  QCircuit<T> circuit(n);
  circuit.push_back(qgates::Hadamard<T>(0));
  for (int q = 1; q < n; ++q) circuit.push_back(qgates::CX<T>(q - 1, q));
  return circuit;
}

/// Touches every family: instrumented gates, fusion, measurement and
/// sampling, a batch, every dispatch route, density and trajectory noise,
/// and an mmap-tier state (returned, so its tier bytes stay live).
std::unique_ptr<Simulation<T>> runWorkload() {
  obs::resetAll();
  {
    const obs::InstrumentedBackend<T> backend;
    ghz(5).simulate("00000", backend);
  }
  {
    QCircuit<T> circuit = ghz(12);
    for (int q = 0; q < 12; ++q) {
      circuit.push_back(qgates::RotationZ<T>(q, 0.1 * (q + 1)));
    }
    SimulateOptions options;
    options.fusion = true;
    circuit.simulate(std::string(12, '0'), options);
  }
  {
    QCircuit<T> bell = ghz(2);
    bell.push_back(Measurement<T>(0));
    bell.push_back(Measurement<T>(1));
    bell.simulate("00").counts(64, 7);
  }
  {
    QCircuit<T> circuit(3);
    for (int q = 0; q < 3; ++q) {
      circuit.push_back(qgates::RotationY<T>(q, 0.1));
    }
    circuit.push_back(qgates::CX<T>(0, 1));
    circuit.simulateBatch(
        {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}});
  }
  {
    SimulateOptions options;
    options.dispatch = sim::DispatchMode::kAuto;
    QCircuit<T> clifford = ghz(3);
    for (int q = 0; q < 3; ++q) clifford.push_back(Measurement<T>(q));
    clifford.simulate("000", options);
    QCircuit<T> mixed = ghz(3);
    mixed.push_back(Measurement<T>(0));
    mixed.push_back(qgates::TGate<T>(1));
    mixed.push_back(qgates::Hadamard<T>(2));
    mixed.push_back(Measurement<T>(2));
    mixed.simulate("000", options);
    sim::dispatchSampleCounts(clifford, 64, 5);
  }
  {
    QCircuit<T> circuit = ghz(2);
    circuit.push_back(Measurement<T>(0));
    const auto model = noise::NoiseModel<T>::depolarizing(0.05);
    noise::simulateDensity(circuit, "00", model);
    noise::TrajectoryOptions options;
    options.nbTrajectories = 16;
    noise::TrajectorySimulator<T>(circuit, model, options).run("00");
  }
  SimulateOptions options;
  options.fusion = true;
  options.stateTier.tier = sim::StateTier::kMmap;
  return std::make_unique<Simulation<T>>(
      ghz(10).simulate(std::string(10, '0'), options));
}

/// The OpenMetrics families announced by `# TYPE` lines.
std::set<std::string> openMetricsFamilies(const std::string& exposition) {
  std::set<std::string> families;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::istringstream meta(line.substr(7));
    std::string family;
    meta >> family;
    families.insert(family);
  }
  return families;
}

/// Objects whose keys are labels (kernel paths, gate kinds, routes,
/// stages) or whose values are timings: listed as `key`, plus `key.*`
/// when they hold anything.
const std::set<std::string> kOpaqueObjects = {
    "counters.gate_applications_by_path",
    "counters.gate_applications_by_kind",
    "counters.bytes_touched_by_path",
    "counters.dispatch_routes",
    "histograms",
    "bandwidth_gbps_by_path",
    "roofline.by_path",
    "stages",
};

void collectKeyPaths(const bj::JsonValue& value, const std::string& prefix,
                     std::set<std::string>& out) {
  if (!value.isObject()) return;
  for (const auto& [key, child] : value.object) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    out.insert(path);
    if (kOpaqueObjects.count(path)) {
      if (child.isObject() && !child.object.empty()) out.insert(path + ".*");
    } else {
      collectKeyPaths(child, path, out);
    }
  }
}

// ---- committed export lists -------------------------------------------

/// OpenMetrics families every build exports.
const char* const kFamilies[] = {
    "qclab_build",
    "qclab_gate_applications",
    "qclab_bytes_touched",
    "qclab_branch_spawns",
    "qclab_branch_prunes",
    "qclab_shots_sampled",
    "qclab_circuit_simulations",
    "qclab_noise_channel_applications",
    "qclab_trajectory_runs",
    "qclab_trajectories_simulated",
    "qclab_batch_runs",
    "qclab_batch_members_simulated",
    "qclab_fusion_gates_in",
    "qclab_fusion_blocks_out",
    "qclab_fusion_sweeps_saved",
    "qclab_dispatch_fallbacks",
    "qclab_dispatch_conversions",
    "qclab_state_tier_fallbacks",
    "qclab_sentinel_checks",
    "qclab_sentinel_nan_detected",
    "qclab_sentinel_norm_alerts",
    "qclab_flight_events_recorded",
    "qclab_state_bytes",
    "qclab_state_bytes_peak",
    "qclab_state_tier_mapped_bytes",
};

/// OpenMetrics families that render only once something was recorded.
const char* const kRecordedFamilies[] = {
    "qclab_path_gate_applications", "qclab_path_bytes_touched",
    "qclab_kind_gate_applications", "qclab_dispatch_routes",
    "qclab_stage_runs",             "qclab_stage_duration_seconds",
    "qclab_path_latency_seconds",
};

/// JSON report key paths every build exports.
const char* const kKeyPaths[] = {
    "schema", "name", "build", "build.version", "build.openmp", "build.obs",
    "build.simd", "build.simd_level", "build.simd_detected", "build.scalars",
    "build.info", "counters", "counters.gate_applications",
    "counters.bytes_touched", "counters.branch_spawns",
    "counters.branch_prunes", "counters.shots_sampled",
    "counters.circuit_simulations", "counters.noise_channel_applications",
    "counters.trajectory_runs", "counters.trajectories_simulated",
    "counters.batch_runs", "counters.batch_members_simulated",
    "counters.fusion_gates_in", "counters.fusion_blocks_out",
    "counters.fusion_sweeps_saved", "counters.dispatch_fallbacks",
    "counters.dispatch_conversions", "counters.state_tier_fallbacks",
    "counters.sentinel_checks", "counters.sentinel_nan_detected",
    "counters.sentinel_norm_alerts", "counters.gate_applications_by_path",
    "counters.gate_applications_by_kind", "counters.bytes_touched_by_path",
    "counters.dispatch_routes", "memory", "memory.current_state_bytes",
    "memory.peak_state_bytes", "memory.tiers", "memory.tiers.heap",
    "memory.tiers.heap.mapped_bytes", "memory.tiers.mmap",
    "memory.tiers.mmap.mapped_bytes",
    "histograms", "bandwidth_gbps_by_path", "roofline", "roofline.available",
    "roofline.peak_gbps",
    "roofline.calibration_ms", "roofline.calibration_bytes",
    "roofline.source", "roofline.by_path", "roofline.classification",
    "stages", "sentinel", "sentinel.policy", "sentinel.checks",
    "sentinel.nan_detected", "sentinel.norm_alerts", "sentinel.violations",
    "sentinel.last_norm_sq", "sentinel.max_amp_sq", "sentinel.check_cost_ns",
    "sentinel.check_cost_ns.count", "sentinel.check_cost_ns.sum_ns",
    "sentinel.check_cost_ns.p50_ns", "sentinel.check_cost_ns.p99_ns",
    "flight", "flight.enabled", "flight.threads", "flight.recorded_total",
    "flight.ring_capacity", "trace", "trace.events", "trace.dropped",
    "results",
};

/// JSON report key paths that appear only once something was recorded.
const char* const kRecordedKeyPaths[] = {
    "counters.gate_applications_by_path.*",
    "counters.gate_applications_by_kind.*",
    "counters.bytes_touched_by_path.*",
    "counters.dispatch_routes.*",
    "histograms.*",
    "bandwidth_gbps_by_path.*",
    "roofline.by_path.*",
    "stages.*",
};

// ---- tests ------------------------------------------------------------

TEST(ObsExport, EveryCounterRowReachesEveryExporter) {
  const auto keep = runWorkload();
  const obs::Metrics& m = obs::metrics();
  if (obs::kEnabled) {
    EXPECT_GT(m.gateApplications(), 0u);
    EXPECT_GT(m.batchRuns(), 0u);
    EXPECT_GT(m.trajectoriesSimulated(), 0u);
  }

  const std::string exposition = obs::renderOpenMetrics();
  const bj::JsonValue report = bj::parseJson(obs::Report("export").json());
  const bj::JsonValue* counters = report.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const obs::CounterRow& row : obs::kCounterRows) {
    const std::uint64_t value = m.value(row.counter);
    const std::string sample = std::string("\nqclab_") + row.name +
                               "_total " + std::to_string(value) + "\n";
    EXPECT_NE(exposition.find(sample), std::string::npos) << row.name;
    const bj::JsonValue* json = counters->find(row.name);
    ASSERT_NE(json, nullptr) << row.name;
    EXPECT_EQ(json->number, static_cast<double>(value)) << row.name;
  }

#ifdef QCLAB_OBS_CRASH_POSIX
  const auto readFile = [](const std::string& file) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string path = ::testing::TempDir() + "qclab_obs_export_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(obs::dumpNow(path.c_str()));
  const bj::JsonValue dump = bj::parseJson(readFile(path));
  std::remove(path.c_str());
  const bj::JsonValue* dumped = dump.find("counters");
  ASSERT_NE(dumped, nullptr);
  for (const obs::CounterRow& row : obs::kCounterRows) {
    const bj::JsonValue* json = dumped->find(row.name);
    ASSERT_NE(json, nullptr) << row.name;
    EXPECT_EQ(json->number, static_cast<double>(m.value(row.counter)))
        << row.name;
  }
#else
  EXPECT_FALSE(obs::dumpNow());
#endif
  obs::resetAll();
}

/// The committed list `always`, plus `recorded` in an enabled build.
template <std::size_t A, std::size_t R>
std::set<std::string> committed(const char* const (&always)[A],
                                const char* const (&recorded)[R]) {
  std::set<std::string> out(std::begin(always), std::end(always));
  if (obs::kEnabled) out.insert(std::begin(recorded), std::end(recorded));
  return out;
}

/// Fails on every series `exported` lacks or holds beyond `listed`.
void expectExactly(const std::set<std::string>& exported,
                   const std::set<std::string>& listed, const char* what) {
  for (const std::string& name : listed) {
    EXPECT_TRUE(exported.count(name)) << "lost " << what << " " << name;
  }
  for (const std::string& name : exported) {
    EXPECT_TRUE(listed.count(name)) << "unlisted " << what << " " << name;
  }
}

TEST(ObsExport, CommittedFamiliesAndKeyPathsAreExported) {
  const auto keep = runWorkload();
  std::set<std::string> keyPaths;
  collectKeyPaths(bj::parseJson(obs::Report("export").json()), "",
                  keyPaths);
  expectExactly(openMetricsFamilies(obs::renderOpenMetrics()),
                committed(kFamilies, kRecordedFamilies), "family");
  expectExactly(keyPaths, committed(kKeyPaths, kRecordedKeyPaths),
                "key path");
  obs::resetAll();
}

TEST(ObsExport, TierFallbacksAreCounted) {
  obs::resetAll();
  sim::StateTierOptions options;
  options.tier = sim::StateTier::kMmap;
  options.directory = "/nonexistent/qclab";
  const auto buffer = sim::StateBuffer<T>::zeros(1 << 10, options);
  EXPECT_EQ(buffer.tier(), sim::StateTier::kHeap);
  const std::uint64_t expected = obs::kEnabled ? 1 : 0;
  EXPECT_EQ(obs::metrics().stateTierFallbacks(), expected);
  const std::string sample =
      "qclab_state_tier_fallbacks_total " + std::to_string(expected) + "\n";
  EXPECT_NE(obs::renderOpenMetrics().find(sample), std::string::npos);
  const bj::JsonValue report = bj::parseJson(obs::Report("tier").json());
  EXPECT_EQ(report.find("counters")->find("state_tier_fallbacks")->number,
            static_cast<double>(expected));

  // A copy of an mmap state whose directory is gone falls back as well.
  const std::string directory = ::testing::TempDir() + "qclab_obs_tier_" +
                                std::to_string(::getpid());
  ASSERT_EQ(::mkdir(directory.c_str(), 0700), 0);
  options.directory = directory;
  const auto mapped = sim::StateBuffer<T>::zeros(1 << 10, options);
  ASSERT_EQ(::rmdir(directory.c_str()), 0);
  if (mapped.tier() == sim::StateTier::kMmap) {
    const sim::StateBuffer<T> copy = mapped;
    EXPECT_EQ(copy.tier(), sim::StateTier::kHeap);
    EXPECT_EQ(obs::metrics().stateTierFallbacks(), 2 * expected);
  }
  obs::resetAll();
}

TEST(ObsExport, ReportBandwidthMatchesItsOwnBytesAndTimings) {
  obs::resetAll();
  // A second thread keeps recording into one path, with latencies that
  // move the bytes/ns ratio, while reports render; each report's
  // bandwidth must come from the bytes and timings that same report
  // prints.
  std::atomic<bool> stop{false};
  std::thread worker([&stop]() {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      obs::metrics().countGate(sim::KernelPath::kDense1, "h", 64);
      obs::latencyHistograms().record(sim::KernelPath::kDense1,
                                      100 + i % 1000);
    }
  });
  for (int i = 0; i < 200; ++i) {
    // Render only while the worker is demonstrably recording.
    const std::uint64_t seen = obs::metrics().gateApplications();
    while (obs::kEnabled && obs::metrics().gateApplications() == seen) {
      std::this_thread::yield();
    }
    const bj::JsonValue report = bj::parseJson(obs::Report("race").json());
    const bj::JsonValue* bytes =
        report.find("counters")->find("bytes_touched_by_path");
    const bj::JsonValue* histograms = report.find("histograms");
    for (const auto& [path, gbps] :
         report.find("bandwidth_gbps_by_path")->object) {
      const double sumNs = histograms->find(path)->find("sum_ns")->number;
      EXPECT_DOUBLE_EQ(gbps.number, bytes->find(path)->number / sumNs)
          << path;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  worker.join();
  obs::resetAll();
}

}  // namespace
