#pragma once

/// \file report.hpp
/// \brief Aggregate export of the observability state.
///
/// A Report renders one captureSnapshot() of every registry (so each
/// section agrees with the others, e.g. bandwidth with bytes and timings),
/// stamps the compile-time build configuration (qclab::buildInfo), and
/// optionally carries named measurement results (benchmark timings).
/// It renders as
///  - a pretty text block for terminals, and
///  - one JSON object in the repo's canonical BENCH_*.json shape
///    (schema "qclab-obs-v4"), so every bench and every instrumented run
///    exports machine-readable numbers the trajectory tooling can diff.
///
/// Each schema is a strict superset of the previous one.  v2 added
/// "histograms" (per-path log2 buckets with p50/p90/p99), "memory" (live
/// and high-water state bytes), and "bandwidth" (effective GB/s per path =
/// bytes touched / timed ns) to v1's counters/trace/results.  v3 added
///  - "perf": hardware-counter totals per kernel path (IPC, LLC miss
///    rate, stall fraction) or an explicit unavailable marker when the
///    host PMU delivers nothing (perfcounters.hpp),
///  - "roofline": the calibrated peak bandwidth and each path's achieved
///    GB/s, fraction of peak, and memory-/compute-bound classification
///    (roofline.hpp),
///  - "stages": pipeline-stage wall time (parse, optimize, fusion
///    planning, state allocation, execute, measurement) from the
///    always-on StageStats registry (trace.hpp).
/// v4 adds
///  - "sentinel": the numerical-health policy, check and alert counters,
///    last norm and peak amplitude, and the cost percentiles of the
///    checks themselves (sentinel.hpp),
///  - "flight": the always-on flight recorder's thread count and total
///    events recorded (flightrecorder.hpp; the events themselves are a
///    crash-dump concern, not a report concern),
///  - "profiler": SIGPROF sample totals and distinct stacks when the
///    sampling profiler ran (profiler.hpp).
/// Every quoted string goes through jsonEscape().
///
/// The counters section iterates the QCLAB_OBS_COUNTERS table, so a new
/// table row appears with no edit here.  The same implementation serves
/// QCLAB_OBS_DISABLED builds: the registries snapshot as all-zeros, and
/// "obs": false marks the file.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/json.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/openmetrics.hpp"
#include "qclab/obs/perfcounters.hpp"
#include "qclab/obs/profiler.hpp"
#include "qclab/obs/roofline.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/version.hpp"

namespace qclab::obs {

/// One named scalar measurement (e.g. a benchmark timing).
struct ReportResult {
  std::string name;   ///< e.g. "kernel/hadamard/n=12"
  double value;       ///< measured value
  std::string unit;   ///< e.g. "ns/op"
};

/// Snapshot + renderer of the observability state.
class Report {
 public:
  /// `name` identifies the run (bench binary, experiment, ...).
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// Attaches a named measurement to the report.
  void add(std::string resultName, double value, std::string unit) {
    results_.push_back(
        {std::move(resultName), value, std::move(unit)});
  }

  const std::string& name() const noexcept { return name_; }
  const std::vector<ReportResult>& results() const noexcept {
    return results_;
  }

  /// Pretty text block: build line, counter table, latency percentiles,
  /// memory line, results table.
  std::string text() const {
    const ObsSnapshot snap = captureSnapshot();
    std::ostringstream out;
    out << "== qclab::obs report — " << name_ << " ==\n";
    out << "build: " << buildInfo() << "\n";
    out << "simd level: " << sim::simdLevelName(sim::activeSimdLevel())
        << " (detected " << sim::simdLevelName(sim::detectedSimdLevel())
        << ")\n";
    for (const CounterRow& row : kCounterRows) {
      std::string label = row.name;
      std::replace(label.begin(), label.end(), '_', ' ');
      out << label << ": " << snap[row.counter] << "\n";
    }
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const std::uint64_t count = snap.gateByPath[p];
      if (count == 0) continue;
      out << "  path " << std::left << std::setw(12) << pathName(p) << " "
          << count << "\n";
    }
    for (const auto& [kind, count] : snap.gateByKind) {
      out << "  kind " << std::left << std::setw(12) << kind << " " << count
          << "\n";
    }
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const HistogramSnapshot& h = snap.histograms[p];
      if (h.empty()) continue;
      out << "  latency " << std::left << std::setw(20) << pathName(p)
          << " p50 " << std::fixed << std::setprecision(0)
          << h.percentileNs(0.50) << "ns  p90 " << h.percentileNs(0.90)
          << "ns  p99 " << h.percentileNs(0.99) << "ns  (" << h.count
          << " samples)\n";
      if (h.sumNs > 0 && snap.bytesByPath[p] > 0) {
        out << "  bandwidth " << std::left << std::setw(18) << pathName(p)
            << " " << std::setprecision(2) << bandwidthGBps(snap, p)
            << " GB/s (est.)\n";
      }
    }
    out << "state memory: " << snap.currentStateBytes << " live, "
        << snap.peakStateBytes << " peak\n";
    for (int t = 0; t < sim::kStateTierCount; ++t) {
      const std::uint64_t resident = snap.tierResidentBytes[t];
      const std::uint64_t mapped = snap.tierMappedBytes[t];
      if (resident == 0 && mapped == 0) continue;
      out << "  tier " << sim::stateTierName(static_cast<sim::StateTier>(t))
          << ": " << resident << " resident, " << mapped << " mapped\n";
    }
    out << "dispatch routes:";
    for (int r = 0; r < sim::kDispatchRouteCount; ++r) {
      out << " " << sim::dispatchRouteName(static_cast<sim::DispatchRoute>(r))
          << " " << snap.dispatchRoutes[r];
    }
    out << "\n";
    const PerfCapability& perfCap = perfCapability();
    if (!perfCap.any()) {
      out << "perf counters: unavailable (" << perfCap.reason << ")\n";
    } else {
      out << "perf counters: " << (perfCap.hardware ? "hardware" : "")
          << (perfCap.hardware && perfCap.software ? "+" : "")
          << (perfCap.software ? "software" : "") << "\n";
      for (int p = 0; p < sim::kKernelPathCount; ++p) {
        const PerfCounts& counts = snap.perf[p];
        if (counts.empty()) continue;
        out << "  perf " << std::left << std::setw(20) << pathName(p) << " "
            << counts.samples << " samples";
        if (counts.cycles != 0) {
          out << ", ipc " << std::fixed << std::setprecision(2)
              << counts.ipc();
        }
        if (counts.llcReferences != 0) {
          out << ", llc-miss " << std::setprecision(1)
              << counts.llcMissRate() * 100.0 << "%";
        }
        out << "\n";
      }
    }
    const RooflineCalibration& cal = rooflineCalibration();
    if (cal.measured) {
      out << "roofline peak: " << std::fixed << std::setprecision(2)
          << cal.peakGBps << " GB/s (" << cal.source << ")\n";
      for (int p = 0; p < sim::kKernelPathCount; ++p) {
        if (snap.histograms[p].sumNs == 0 || snap.bytesByPath[p] == 0) {
          continue;
        }
        const RooflinePoint point = roofline(snap, p);
        out << "  roofline " << std::left << std::setw(18) << pathName(p)
            << " " << std::setprecision(2) << point.achievedGBps
            << " GB/s (" << std::setprecision(0)
            << point.fractionOfPeak * 100.0 << "% of peak, "
            << point.classification << ")\n";
      }
    } else {
      out << "roofline: unavailable (" << cal.source << ")\n";
    }
    for (const auto& [stage, agg] : snap.stages) {
      out << "  stage " << std::left << std::setw(20) << stage << " "
          << agg.count << " x " << std::fixed << std::setprecision(0)
          << meanNs(agg) << "ns\n";
    }
    const Sentinel& sentinelRef = sentinel();
    out << "sentinel: policy " << sentinelPolicyName(sentinelRef.policy())
        << ", " << snap.sentinelChecks << " checks, "
        << snap.sentinelNanDetected << " nan, " << snap.sentinelNormAlerts
        << " norm alerts";
    if (snap.sentinelChecks != 0) {
      out << " (last |psi|^2 " << std::fixed << std::setprecision(6)
          << sentinelRef.lastNormSq() << ")";
    }
    out << "\n";
    out << "flight recorder: "
        << (flightRecorder().enabled() ? "on" : "off") << ", "
        << snap.flightEventsRecorded << " events over "
        << flightRecorder().threadCount() << " threads\n";
    if (profiler().samples() != 0) {
      out << "profiler: " << profiler().samples() << " samples, "
          << profiler().distinctStacks() << " stacks, "
          << profiler().dropped() << " dropped\n";
    }
    out << "trace: " << tracer().nbEvents() << " spans retained, "
        << tracer().dropped() << " dropped\n";
    if (!results_.empty()) {
      out << "results:\n";
      for (const auto& result : results_) {
        out << "  " << std::left << std::setw(36) << result.name << " "
            << std::right << std::setw(14) << std::fixed
            << std::setprecision(2) << result.value << " " << result.unit
            << "\n";
      }
    }
    return out.str();
  }

  /// The canonical BENCH_*.json object (schema "qclab-obs-v4").
  std::string json() const {
    const ObsSnapshot snap = captureSnapshot();
    std::ostringstream out;
    // `{"label": value, ...}` over the non-zero cells of a family.
    const auto labelMap = [&out](const std::vector<std::uint64_t>& values,
                                 auto labelName) {
      out << "{";
      bool first = true;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] == 0) continue;
        if (!first) out << ", ";
        first = false;
        out << "\"" << jsonEscape(labelName(static_cast<int>(i)))
            << "\": " << values[i];
      }
      out << "}";
    };
    out << "{\n";
    out << "  \"schema\": \"qclab-obs-v4\",\n";
    out << "  \"name\": \"" << jsonEscape(name_) << "\",\n";
    out << "  \"build\": {\n";
    out << "    \"version\": \"" << jsonEscape(versionString()) << "\",\n";
    out << "    \"openmp\": " << (builtWithOpenMP() ? "true" : "false")
        << ",\n";
    out << "    \"obs\": " << (builtWithObs() ? "true" : "false") << ",\n";
    out << "    \"simd\": " << (builtWithSimd() ? "true" : "false") << ",\n";
    out << "    \"simd_level\": \""
        << jsonEscape(sim::simdLevelName(sim::activeSimdLevel())) << "\",\n";
    out << "    \"simd_detected\": \""
        << jsonEscape(sim::simdLevelName(sim::detectedSimdLevel()))
        << "\",\n";
    out << "    \"scalars\": \"" << jsonEscape(scalarTypes()) << "\",\n";
    out << "    \"info\": \"" << jsonEscape(buildInfo()) << "\"\n";
    out << "  },\n";
    out << "  \"counters\": {\n";
    for (const CounterRow& row : kCounterRows) {
      out << "    \"" << row.name << "\": " << snap[row.counter] << ",\n";
    }
    out << "    \"gate_applications_by_path\": ";
    labelMap(snap.gateByPath, pathName);
    out << ",\n    \"gate_applications_by_kind\": {";
    bool first = true;
    for (const auto& [kind, count] : snap.gateByKind) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << jsonEscape(kind) << "\": " << count;
    }
    out << "},\n    \"bytes_touched_by_path\": ";
    labelMap(snap.bytesByPath, pathName);
    out << ",\n    \"dispatch_routes\": ";
    labelMap(snap.dispatchRoutes, [](int r) {
      return sim::dispatchRouteName(static_cast<sim::DispatchRoute>(r));
    });
    out << "\n  },\n";
    out << "  \"memory\": {\n";
    out << "    \"current_state_bytes\": " << snap.currentStateBytes << ",\n";
    out << "    \"peak_state_bytes\": " << snap.peakStateBytes << ",\n";
    out << "    \"tiers\": {";
    for (int t = 0; t < sim::kStateTierCount; ++t) {
      if (t != 0) out << ",";
      out << "\n      \""
          << sim::stateTierName(static_cast<sim::StateTier>(t)) << "\": {"
          << "\"resident_bytes\": " << snap.tierResidentBytes[t]
          << ", \"mapped_bytes\": " << snap.tierMappedBytes[t] << "}";
    }
    out << "\n    }\n";
    out << "  },\n";
    out << "  \"histograms\": {";
    first = true;
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const HistogramSnapshot& h = snap.histograms[p];
      if (h.empty()) continue;
      if (!first) out << ",";
      first = false;
      out << "\n    \"" << jsonEscape(pathName(p)) << "\": {"
          << "\"count\": " << h.count << ", \"sum_ns\": " << h.sumNs
          << ", \"mean_ns\": " << std::setprecision(17) << h.meanNs()
          << ", \"p50_ns\": " << h.percentileNs(0.50)
          << ", \"p90_ns\": " << h.percentileNs(0.90)
          << ", \"p99_ns\": " << h.percentileNs(0.99)
          << ", \"buckets_log2_ns\": [";
      // Trailing zero buckets are trimmed to keep the file compact.
      int last = static_cast<int>(h.buckets.size()) - 1;
      while (last > 0 && h.buckets[static_cast<std::size_t>(last)] == 0) {
        --last;
      }
      for (int b = 0; b <= last; ++b) {
        if (b != 0) out << ", ";
        out << h.buckets[static_cast<std::size_t>(b)];
      }
      out << "]}";
    }
    if (!first) out << "\n  ";
    out << "},\n";
    out << "  \"bandwidth_gbps_by_path\": {";
    first = true;
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      if (snap.histograms[p].sumNs == 0 || snap.bytesByPath[p] == 0) {
        continue;
      }
      if (!first) out << ", ";
      first = false;
      out << "\"" << jsonEscape(pathName(p)) << "\": "
          << std::setprecision(17) << bandwidthGBps(snap, p);
    }
    out << "},\n";
    // v3: hardware counters per path, or the explicit unavailable marker.
    const PerfCapability& perfCap = perfCapability();
    out << "  \"perf\": {\n";
    out << "    \"available\": " << (perfCap.any() ? "true" : "false")
        << ",\n";
    out << "    \"hardware\": " << (perfCap.hardware ? "true" : "false")
        << ",\n";
    out << "    \"llc\": " << (perfCap.llc ? "true" : "false") << ",\n";
    out << "    \"software\": " << (perfCap.software ? "true" : "false")
        << ",\n";
    out << "    \"unavailable\": \"" << jsonEscape(perfCap.reason)
        << "\",\n";
    out << "    \"by_path\": {";
    first = true;
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const PerfCounts& counts = snap.perf[p];
      if (counts.empty()) continue;
      if (!first) out << ",";
      first = false;
      out << "\n      \"" << jsonEscape(pathName(p))
          << "\": {\"samples\": " << counts.samples
          << ", \"cycles\": " << counts.cycles
          << ", \"instructions\": " << counts.instructions
          << ", \"ipc\": " << std::setprecision(17) << counts.ipc()
          << ", \"llc_references\": " << counts.llcReferences
          << ", \"llc_misses\": " << counts.llcMisses
          << ", \"llc_miss_rate\": " << counts.llcMissRate()
          << ", \"stalled_cycles\": " << counts.stalledCycles
          << ", \"stall_fraction\": " << counts.stallFraction()
          << ", \"task_clock_ns\": " << counts.taskClockNs
          << ", \"page_faults\": " << counts.pageFaults << "}";
    }
    if (!first) out << "\n    ";
    out << "}\n";
    out << "  },\n";
    // v3: achieved vs. calibrated-peak bandwidth and boundedness verdicts.
    const RooflineCalibration& cal = rooflineCalibration();
    out << "  \"roofline\": {\n";
    out << "    \"available\": " << (cal.measured ? "true" : "false")
        << ",\n";
    out << "    \"peak_gbps\": " << std::setprecision(17) << cal.peakGBps
        << ",\n";
    out << "    \"calibration_ms\": " << cal.calibrationMs << ",\n";
    out << "    \"calibration_bytes\": " << cal.bufferBytes << ",\n";
    out << "    \"source\": \"" << jsonEscape(cal.source) << "\",\n";
    std::string dominant = "indeterminate";
    std::uint64_t dominantBytes = 0;
    out << "    \"by_path\": {";
    first = true;
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const std::uint64_t pathBytes = snap.bytesByPath[p];
      if (snap.histograms[p].sumNs == 0 || pathBytes == 0) continue;
      const RooflinePoint point = roofline(snap, p);
      if (pathBytes > dominantBytes) {
        dominantBytes = pathBytes;
        dominant = point.classification;
      }
      if (!first) out << ",";
      first = false;
      out << "\n      \"" << jsonEscape(pathName(p))
          << "\": {\"achieved_gbps\": " << std::setprecision(17)
          << point.achievedGBps
          << ", \"fraction_of_peak\": " << point.fractionOfPeak
          << ", \"est_gflops\": " << point.estGflops
          << ", \"intensity_flops_per_byte\": "
          << point.intensityFlopsPerByte << ", \"classification\": \""
          << jsonEscape(point.classification) << "\"}";
    }
    if (!first) out << "\n    ";
    out << "},\n";
    out << "    \"classification\": \"" << jsonEscape(dominant) << "\"\n";
    out << "  },\n";
    // v3: pipeline-stage wall time from the always-on StageStats registry.
    out << "  \"stages\": {";
    first = true;
    for (const auto& [stage, agg] : snap.stages) {
      if (!first) out << ",";
      first = false;
      out << "\n    \"" << jsonEscape(stage)
          << "\": {\"count\": " << agg.count
          << ", \"sum_ns\": " << agg.sumNs
          << ", \"mean_ns\": " << std::setprecision(17) << meanNs(agg)
          << "}";
    }
    if (!first) out << "\n  ";
    out << "},\n";
    // v4: numerical-health sentinels — policy, alert counters, and the
    // cost distribution of the checks themselves.
    const Sentinel& sentinelRef = sentinel();
    const HistogramSnapshot checkSnap = sentinelRef.checkHistogram().snapshot();
    out << "  \"sentinel\": {\n";
    out << "    \"policy\": \""
        << jsonEscape(sentinelPolicyName(sentinelRef.policy())) << "\",\n";
    out << "    \"checks\": " << snap.sentinelChecks << ",\n";
    out << "    \"nan_detected\": " << snap.sentinelNanDetected << ",\n";
    out << "    \"norm_alerts\": " << snap.sentinelNormAlerts << ",\n";
    out << "    \"violations\": "
        << snap.sentinelNanDetected + snap.sentinelNormAlerts << ",\n";
    out << "    \"last_norm_sq\": " << std::setprecision(17)
        << sentinelRef.lastNormSq() << ",\n";
    out << "    \"max_amp_sq\": " << sentinelRef.maxAmpSq() << ",\n";
    out << "    \"check_cost_ns\": {\"count\": " << checkSnap.count
        << ", \"sum_ns\": " << checkSnap.sumNs
        << ", \"p50_ns\": " << checkSnap.percentileNs(0.50)
        << ", \"p99_ns\": " << checkSnap.percentileNs(0.99) << "}\n";
    out << "  },\n";
    // v4: flight-recorder occupancy (the events themselves go to crash
    // dumps, not reports).
    out << "  \"flight\": {\n";
    out << "    \"enabled\": "
        << (flightRecorder().enabled() ? "true" : "false") << ",\n";
    out << "    \"threads\": " << flightRecorder().threadCount() << ",\n";
    out << "    \"recorded_total\": " << snap.flightEventsRecorded << ",\n";
    out << "    \"ring_capacity\": " << kFlightRingCapacity << "\n";
    out << "  },\n";
    // v4: SIGPROF sampling-profiler totals (zeros unless start() ran).
    out << "  \"profiler\": {\n";
    out << "    \"samples\": " << profiler().samples() << ",\n";
    out << "    \"distinct_stacks\": " << profiler().distinctStacks()
        << ",\n";
    out << "    \"dropped\": " << profiler().dropped() << "\n";
    out << "  },\n";
    out << "  \"trace\": {\"events\": " << tracer().nbEvents()
        << ", \"dropped\": " << tracer().dropped() << "},\n";
    out << "  \"results\": [";
    first = true;
    for (const auto& result : results_) {
      if (!first) out << ",";
      first = false;
      out << "\n    {\"name\": \"" << jsonEscape(result.name)
          << "\", \"value\": " << std::setprecision(17) << result.value
          << ", \"unit\": \"" << jsonEscape(result.unit) << "\"}";
    }
    if (!results_.empty()) out << "\n  ";
    out << "]\n";
    out << "}";
    return out.str();
  }

  /// Writes json() to `path`.  Returns false on I/O failure.
  bool writeJson(const std::string& path) const {
    std::ofstream file(path);
    if (!file) return false;
    file << json() << "\n";
    return static_cast<bool>(file);
  }

 private:
  static const char* pathName(int p) {
    return sim::kernelPathName(static_cast<sim::KernelPath>(p));
  }

  static double meanNs(const StageAgg& agg) {
    return agg.count == 0 ? 0.0
                          : static_cast<double>(agg.sumNs) /
                                static_cast<double>(agg.count);
  }

  /// Effective GB/s of path `p` (bytes/ns == GB/s decimal, the QCLAB++
  /// effective-bandwidth metric), from one snapshot's bytes and timings.
  static double bandwidthGBps(const ObsSnapshot& snap, int p) {
    return static_cast<double>(snap.bytesByPath[p]) /
           static_cast<double>(snap.histograms[p].sumNs);
  }

  static RooflinePoint roofline(const ObsSnapshot& snap, int p) {
    return rooflinePoint(static_cast<sim::KernelPath>(p), snap.bytesByPath[p],
                         snap.histograms[p].sumNs, snap.perf[p]);
  }

  std::string name_;
  std::vector<ReportResult> results_;
};

}  // namespace qclab::obs
