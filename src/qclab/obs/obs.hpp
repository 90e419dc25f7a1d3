#pragma once

/// \file obs.hpp
/// \brief Umbrella header of the observability layer (qclab::obs):
/// counters (metrics.hpp), per-path latency histograms (histogram.hpp),
/// scoped-span tracing with Chrome trace_event export and pipeline-stage
/// aggregation (trace.hpp), hardware perf-counter sampling
/// (perfcounters.hpp), roofline attribution (roofline.hpp), aggregate
/// text/JSON reporting (report.hpp), the OpenMetrics exposition renderer
/// (openmetrics.hpp), shared JSON escaping (json.hpp), the metering
/// backend decorator (instrumented.hpp), the always-on flight recorder
/// (flightrecorder.hpp), numerical-health sentinels (sentinel.hpp),
/// signal-safe crash diagnostics (crashdump.hpp), and the SIGPROF
/// sampling profiler (profiler.hpp).
///
/// Compile with QCLAB_OBS_DISABLED (CMake: -DQCLAB_OBS_DISABLED=ON) to
/// discard every recording body (enabled.hpp): the API stays the same,
/// readers return zero, and exporters render valid all-zero output.

#include "qclab/obs/crashdump.hpp"
#include "qclab/obs/enabled.hpp"
#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"
#include "qclab/obs/instrumented.hpp"
#include "qclab/obs/json.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/openmetrics.hpp"
#include "qclab/obs/perfcounters.hpp"
#include "qclab/obs/profiler.hpp"
#include "qclab/obs/report.hpp"
#include "qclab/obs/roofline.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"

namespace qclab::obs {

/// Zeroes every obs registry — counters, latency histograms, stage
/// aggregates, perf-counter totals, flight rings, sentinel counters, and
/// profiler samples — and clears the tracer's ring buffer.  The
/// start-of-measured-region reset used by benches and tests.
inline void resetAll() {
  metrics().reset();
  latencyHistograms().reset();
  stageStats().reset();
  perfRegistry().reset();
  tracer().clear();
  flightRecorder().reset();
  sentinel().reset();
  profiler().reset();
}

}  // namespace qclab::obs
