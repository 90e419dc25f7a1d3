#pragma once

/// \file openmetrics.hpp
/// \brief OpenMetrics (Prometheus exposition) rendering of the obs state.
///
/// ObsSnapshot copies every live registry — counters, memory gauges,
/// per-path latency histograms, pipeline-stage aggregates, perf-counter
/// totals — at one point in time; snapshotDelta() subtracts a previous
/// snapshot so a long-running process (the ROADMAP's circuit-as-a-service
/// daemon) can expose per-scrape increments instead of lifetime totals.
/// renderOpenMetrics() serializes a snapshot in OpenMetrics text format:
/// `# TYPE` metadata per family, `_total`-suffixed counters, cumulative
/// `le` histogram buckets ending at `+Inf`, and the mandatory terminating
/// `# EOF` line.  `tools/qclab_metrics_dump` wraps this as a CLI.
///
/// The plain counters render by iterating the QCLAB_OBS_COUNTERS table
/// (metrics.hpp), so a new table row is exported with no edit here.  The
/// same code serves QCLAB_OBS_DISABLED builds: every sample renders as
/// zero and the exposition stays valid.

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/perfcounters.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/version.hpp"

namespace qclab::obs {

/// Point-in-time copy of every obs registry (counters are lifetime totals;
/// currentStateBytes/peakStateBytes and the tier bytes are gauges).
struct ObsSnapshot {
#define QCLAB_OBS_FIELD(e, reader, name, help) std::uint64_t reader = 0;
  QCLAB_OBS_COUNTERS(QCLAB_OBS_FIELD)
#undef QCLAB_OBS_FIELD
  std::vector<std::uint64_t> gateByPath;   ///< kKernelPathCount entries
  std::vector<std::uint64_t> bytesByPath;  ///< kKernelPathCount entries
  std::vector<std::uint64_t> dispatchRoutes;  ///< kDispatchRouteCount
  std::map<std::string, std::uint64_t> gateByKind;
  std::uint64_t sentinelChecks = 0;
  std::uint64_t sentinelNanDetected = 0;
  std::uint64_t sentinelNormAlerts = 0;
  std::uint64_t flightEventsRecorded = 0;
  std::uint64_t currentStateBytes = 0;  ///< gauge
  std::uint64_t peakStateBytes = 0;     ///< gauge
  std::vector<std::uint64_t> tierResidentBytes;  ///< gauge, kStateTierCount
  std::vector<std::uint64_t> tierMappedBytes;    ///< gauge, kStateTierCount
  std::vector<HistogramSnapshot> histograms;  ///< per kernel path
  std::map<std::string, StageAgg> stages;
  std::vector<PerfCounts> perf;               ///< per kernel path

  /// The field of the plain counter `counter`.
  std::uint64_t& operator[](Counter counter) noexcept {
    return this->*field(counter);
  }
  std::uint64_t operator[](Counter counter) const noexcept {
    return this->*field(counter);
  }

  static std::uint64_t ObsSnapshot::*field(Counter counter) noexcept {
    static constexpr std::uint64_t ObsSnapshot::*kFields[] = {
#define QCLAB_OBS_MEMBER(e, reader, name, help) &ObsSnapshot::reader,
        QCLAB_OBS_COUNTERS(QCLAB_OBS_MEMBER)
#undef QCLAB_OBS_MEMBER
    };
    return kFields[static_cast<int>(counter)];
  }
};

/// Captures the current state of every registry.
inline ObsSnapshot captureSnapshot() {
  const Metrics& m = metrics();
  ObsSnapshot snap;
  for (const CounterRow& row : kCounterRows) {
    snap[row.counter] = m.value(row.counter);
  }
  snap.gateByPath = m.gatesByPath().values();
  snap.bytesByPath = m.bytesByPath().values();
  snap.dispatchRoutes = m.routes().values();
  snap.gateByKind = m.gateKinds();
  snap.sentinelChecks = sentinel().checks();
  snap.sentinelNanDetected = sentinel().nanDetected();
  snap.sentinelNormAlerts = sentinel().normAlerts();
  snap.flightEventsRecorded = flightRecorder().totalRecorded();
  snap.currentStateBytes = m.currentStateBytes();
  snap.peakStateBytes = m.peakStateBytes();
  snap.tierResidentBytes = m.tierResident().values();
  snap.tierMappedBytes = m.tierMapped().values();
  for (int p = 0; p < sim::kKernelPathCount; ++p) {
    const auto path = static_cast<sim::KernelPath>(p);
    snap.histograms.push_back(latencyHistograms().histogram(path).snapshot());
    snap.perf.push_back(perfRegistry().counts(path));
  }
  snap.stages = stageStats().snapshot();
  return snap;
}

namespace detail {

inline std::uint64_t saturatingSub(std::uint64_t a,
                                   std::uint64_t b) noexcept {
  return a >= b ? a - b : 0;
}

/// Elementwise saturatingSub of two label-indexed families.
inline void subtractEach(std::vector<std::uint64_t>& now,
                         const std::vector<std::uint64_t>& before) {
  for (std::size_t i = 0; i < now.size() && i < before.size(); ++i) {
    now[i] = saturatingSub(now[i], before[i]);
  }
}

}  // namespace detail

/// Captures the current state and subtracts `previous`: counters,
/// histogram buckets, stage aggregates, and perf totals become per-period
/// increments, while the memory gauges keep their current values.  The
/// scraping pattern is
///
///   ObsSnapshot last = captureSnapshot();
///   ... later, per scrape: ObsSnapshot delta = snapshotDelta(last);
///       last = captureSnapshot();
inline ObsSnapshot snapshotDelta(const ObsSnapshot& previous) {
  using detail::saturatingSub;
  ObsSnapshot delta = captureSnapshot();
  for (const CounterRow& row : kCounterRows) {
    delta[row.counter] =
        saturatingSub(delta[row.counter], previous[row.counter]);
  }
  detail::subtractEach(delta.gateByPath, previous.gateByPath);
  detail::subtractEach(delta.bytesByPath, previous.bytesByPath);
  detail::subtractEach(delta.dispatchRoutes, previous.dispatchRoutes);
  for (auto& [kind, count] : delta.gateByKind) {
    const auto prior = previous.gateByKind.find(kind);
    if (prior != previous.gateByKind.end()) {
      count = saturatingSub(count, prior->second);
    }
  }
  delta.sentinelChecks =
      saturatingSub(delta.sentinelChecks, previous.sentinelChecks);
  delta.sentinelNanDetected = saturatingSub(delta.sentinelNanDetected,
                                            previous.sentinelNanDetected);
  delta.sentinelNormAlerts = saturatingSub(delta.sentinelNormAlerts,
                                           previous.sentinelNormAlerts);
  delta.flightEventsRecorded = saturatingSub(
      delta.flightEventsRecorded, previous.flightEventsRecorded);
  for (std::size_t i = 0; i < delta.histograms.size() &&
                          i < previous.histograms.size();
       ++i) {
    HistogramSnapshot& h = delta.histograms[i];
    const HistogramSnapshot& prior = previous.histograms[i];
    h.count = saturatingSub(h.count, prior.count);
    h.sumNs = saturatingSub(h.sumNs, prior.sumNs);
    detail::subtractEach(h.buckets, prior.buckets);
  }
  for (std::size_t i = 0;
       i < delta.perf.size() && i < previous.perf.size(); ++i) {
    for (const auto field : kPerfFields) {
      delta.perf[i].*field =
          saturatingSub(delta.perf[i].*field, previous.perf[i].*field);
    }
  }
  for (auto& [stage, agg] : delta.stages) {
    const auto prior = previous.stages.find(stage);
    if (prior != previous.stages.end()) {
      agg.count = saturatingSub(agg.count, prior->second.count);
      agg.sumNs = saturatingSub(agg.sumNs, prior->second.sumNs);
    }
  }
  return delta;
}

namespace detail {

/// Escapes a label value per the OpenMetrics text format (backslash,
/// double quote, and newline are the only escapable characters).
inline std::string openMetricsLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"':  out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:   out += c;
    }
  }
  return out;
}

/// Shortest round-trippable decimal of a double for sample values.
inline std::string openMetricsNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace detail

/// Renders `snap` in OpenMetrics text format, terminated by `# EOF`.
inline std::string renderOpenMetrics(const ObsSnapshot& snap) {
  using detail::openMetricsLabel;
  using detail::openMetricsNumber;
  std::ostringstream out;

  out << "# TYPE qclab_build info\n"
      << "# HELP qclab_build Compile-time configuration of the qclab "
         "library.\n"
      << "qclab_build_info{version=\""
      << openMetricsLabel(versionString()) << "\",simd_level=\""
      << openMetricsLabel(sim::simdLevelName(sim::activeSimdLevel()))
      << "\",obs=\"" << (builtWithObs() ? "true" : "false") << "\"} 1\n";

  const auto counter = [&out](const std::string& name, const char* help,
                              std::uint64_t value) {
    out << "# TYPE " << name << " counter\n";
    if (help != nullptr) out << "# HELP " << name << " " << help << "\n";
    out << name << "_total " << value << "\n";
  };
  for (const CounterRow& row : kCounterRows) {
    counter(std::string("qclab_") + row.name, row.help, snap[row.counter]);
  }
  counter("qclab_sentinel_checks",
          "Numerical-health checks performed by the sentinels.",
          snap.sentinelChecks);
  counter("qclab_sentinel_nan_detected",
          "Sentinel checks that found non-finite amplitudes.",
          snap.sentinelNanDetected);
  counter("qclab_sentinel_norm_alerts",
          "Sentinel checks that found norm drift beyond tolerance.",
          snap.sentinelNormAlerts);
  counter("qclab_flight_events_recorded",
          "Events recorded by the always-on flight recorder.",
          snap.flightEventsRecorded);

  out << "# TYPE qclab_state_bytes gauge\n"
      << "# HELP qclab_state_bytes Live simulation-state bytes.\n"
      << "qclab_state_bytes " << snap.currentStateBytes << "\n";
  out << "# TYPE qclab_state_bytes_peak gauge\n"
      << "qclab_state_bytes_peak " << snap.peakStateBytes << "\n";

  // Label-indexed families: counters list their non-zero cells, gauges
  // every cell.
  const auto family = [&out](const char* name, bool gauge, const char* help,
                             const char* label,
                             const std::vector<std::uint64_t>& values,
                             auto labelName) {
    bool headed = false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!gauge && values[i] == 0) continue;
      if (!headed) {
        out << "# TYPE " << name << (gauge ? " gauge\n" : " counter\n");
        if (help != nullptr) out << "# HELP " << name << " " << help << "\n";
        headed = true;
      }
      out << name << (gauge ? "{" : "_total{") << label << "=\""
          << openMetricsLabel(labelName(static_cast<int>(i))) << "\"} "
          << values[i] << "\n";
    }
  };
  const auto pathName = [](int i) {
    return sim::kernelPathName(static_cast<sim::KernelPath>(i));
  };
  const auto tierName = [](int i) {
    return sim::stateTierName(static_cast<sim::StateTier>(i));
  };
  // Per-tier memory gauges (state_buffer.hpp tier ladder): resident is
  // what the tier believes is backed by RAM, mapped is address space.
  family("qclab_state_tier_resident_bytes", true,
         "Live state bytes resident in RAM per memory tier.", "tier",
         snap.tierResidentBytes, tierName);
  family("qclab_state_tier_mapped_bytes", true, nullptr, "tier",
         snap.tierMappedBytes, tierName);
  family("qclab_path_gate_applications", false, nullptr, "path",
         snap.gateByPath, pathName);
  family("qclab_path_bytes_touched", false, nullptr, "path", snap.bytesByPath,
         pathName);
  if (!snap.gateByKind.empty()) {
    out << "# TYPE qclab_kind_gate_applications counter\n";
    for (const auto& [kind, count] : snap.gateByKind) {
      out << "qclab_kind_gate_applications_total{kind=\""
          << openMetricsLabel(kind) << "\"} " << count << "\n";
    }
  }
  family("qclab_dispatch_routes", false,
         "Route decisions of the adaptive dispatcher.", "route",
         snap.dispatchRoutes, [](int i) {
           return sim::dispatchRouteName(static_cast<sim::DispatchRoute>(i));
         });

  if (!snap.stages.empty()) {
    out << "# TYPE qclab_stage_runs counter\n";
    for (const auto& [stage, agg] : snap.stages) {
      out << "qclab_stage_runs_total{stage=\"" << openMetricsLabel(stage)
          << "\"} " << agg.count << "\n";
    }
    out << "# TYPE qclab_stage_duration_seconds counter\n"
        << "# HELP qclab_stage_duration_seconds Summed wall time per "
           "pipeline stage.\n";
    for (const auto& [stage, agg] : snap.stages) {
      out << "qclab_stage_duration_seconds_total{stage=\""
          << openMetricsLabel(stage) << "\"} "
          << openMetricsNumber(static_cast<double>(agg.sumNs) / 1e9)
          << "\n";
    }
  }

  // Per-path latency histograms: log2 ns buckets exported as cumulative
  // seconds-bounded `le` buckets, trailing empties folded into +Inf.
  bool any = false;
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    if (h.empty()) continue;
    if (!any) {
      out << "# TYPE qclab_path_latency_seconds histogram\n"
          << "# HELP qclab_path_latency_seconds Kernel latency per "
             "dispatch path.\n";
      any = true;
    }
    const std::string label =
        openMetricsLabel(pathName(static_cast<int>(i)));
    int last = static_cast<int>(h.buckets.size()) - 1;
    while (last > 0 && h.buckets[static_cast<std::size_t>(last)] == 0) {
      --last;
    }
    std::uint64_t cumulative = 0;
    for (int b = 0; b <= last; ++b) {
      cumulative += h.buckets[static_cast<std::size_t>(b)];
      out << "qclab_path_latency_seconds_bucket{path=\"" << label
          << "\",le=\""
          << openMetricsNumber(HistogramSnapshot::bucketHighNs(b) / 1e9)
          << "\"} " << cumulative << "\n";
    }
    out << "qclab_path_latency_seconds_bucket{path=\"" << label
        << "\",le=\"+Inf\"} " << h.count << "\n";
    out << "qclab_path_latency_seconds_sum{path=\"" << label << "\"} "
        << openMetricsNumber(static_cast<double>(h.sumNs) / 1e9) << "\n";
    out << "qclab_path_latency_seconds_count{path=\"" << label << "\"} "
        << h.count << "\n";
  }

  // Hardware counter totals, only for paths with recorded scopes.
  struct PerfField {
    const char* family;
    std::uint64_t PerfCounts::* member;
    double scale;  // multiplies the raw value (1e-9 for ns -> seconds)
  };
  static const PerfField perfFields[] = {
      {"qclab_path_perf_samples", &PerfCounts::samples, 1.0},
      {"qclab_path_cpu_cycles", &PerfCounts::cycles, 1.0},
      {"qclab_path_instructions", &PerfCounts::instructions, 1.0},
      {"qclab_path_llc_references", &PerfCounts::llcReferences, 1.0},
      {"qclab_path_llc_misses", &PerfCounts::llcMisses, 1.0},
      {"qclab_path_stalled_cycles", &PerfCounts::stalledCycles, 1.0},
      {"qclab_path_task_clock_seconds", &PerfCounts::taskClockNs, 1e-9},
      {"qclab_path_page_faults", &PerfCounts::pageFaults, 1.0},
  };
  for (const PerfField& field : perfFields) {
    bool headed = false;
    for (std::size_t i = 0; i < snap.perf.size(); ++i) {
      if (snap.perf[i].empty()) continue;
      const std::uint64_t raw = snap.perf[i].*field.member;
      if (raw == 0) continue;
      if (!headed) {
        out << "# TYPE " << field.family << " counter\n";
        headed = true;
      }
      out << field.family << "_total{path=\""
          << openMetricsLabel(pathName(static_cast<int>(i))) << "\"} ";
      if (field.scale == 1.0) {
        out << raw;
      } else {
        out << openMetricsNumber(static_cast<double>(raw) * field.scale);
      }
      out << "\n";
    }
  }

  out << "# EOF\n";
  return out.str();
}

/// Renders the live registries (lifetime totals).
inline std::string renderOpenMetrics() {
  return renderOpenMetrics(captureSnapshot());
}

}  // namespace qclab::obs
