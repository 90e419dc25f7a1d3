#pragma once

/// \file obs.hpp
/// \brief Umbrella header of the observability layer (qclab::obs):
/// counters (metrics.hpp), per-path latency histograms (histogram.hpp),
/// pipeline-stage spans, their aggregation, and the Chrome trace_event
/// view of the flight rings (trace.hpp), roofline attribution
/// (roofline.hpp), aggregate text/JSON reporting (report.hpp), the
/// OpenMetrics exposition renderer (openmetrics.hpp), shared JSON
/// escaping (json.hpp), the metering backend decorator
/// (instrumented.hpp), the flight recorder's per-thread event rings
/// (flightrecorder.hpp), numerical-health sentinels (sentinel.hpp), and
/// signal-safe crash diagnostics (crashdump.hpp).
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
#include "qclab/obs/report.hpp"
#include "qclab/obs/roofline.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"

namespace qclab::obs {

/// Zeroes every obs registry — counters, latency histograms, stage
/// aggregates, flight rings (trace events included), and sentinel gauges.
/// The start-of-measured-region reset used by benches and tests.
inline void resetAll() {
  metrics().reset();
  latencyHistograms().reset();
  stageStats().reset();
  flightRecorder().reset();
  sentinel().reset();
}

}  // namespace qclab::obs
