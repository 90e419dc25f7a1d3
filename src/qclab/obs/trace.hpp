#pragma once

/// \file trace.hpp
/// \brief Stage spans, the stage registry, and the Chrome trace view of
/// the flight rings.
///
/// ScopedSpan marks one pipeline stage (QASM parse, optimize, fusion
/// planning, state allocation, execute, measurement) by a static name.
/// It pushes that name onto the calling thread's signal-safe
/// SpanFrameStack — read by the crash dump, and the source of the depth
/// the Chrome view shows — always adds its duration to the StageStats
/// registry, so reports carry a "stages" breakdown with tracing off, and,
/// while tracing is on (flightRecorder().enableTracing()), writes one span
/// event into the thread's flight ring when it closes.
///
/// chromeTraceJson() renders every ring — spans and kernel events alike —
/// as Chrome trace_event JSON ("X" complete events, one track per
/// recording thread), loadable in about:tracing or
/// https://ui.perfetto.dev.  Under QCLAB_OBS_DISABLED the recording bodies
/// are discarded: spans record nothing and the export is an empty, valid
/// trace.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/json.hpp"
#include "qclab/sim/kernel_path.hpp"

namespace qclab::obs {

/// Accumulated wall time of one pipeline stage.
struct StageAgg {
  std::uint64_t count = 0;  ///< completed spans of this stage
  std::uint64_t sumNs = 0;  ///< summed span durations in ns
};

/// Always-on accumulation of pipeline-stage wall time, keyed by the
/// spans' static names.  Stages fire a few times per simulate/parse/
/// optimize call (never per gate), so a mutex-guarded pointer map is
/// cheap; reports render the snapshot as the "stages" section even when
/// tracing is off.
class StageStats {
 public:
  /// Adds one completed `ns` span to `stage` (a static string).
  void record(const char* stage, std::uint64_t ns) {
    if constexpr (kEnabled) {
      const std::lock_guard<std::mutex> lock(mutex_);
      StageAgg& agg = stages_[stage];
      ++agg.count;
      agg.sumNs += ns;
    }
  }

  /// Every stage's totals by name (equal names merge).
  std::map<std::string, StageAgg> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, StageAgg> out;
    for (const auto& [stage, agg] : stages_) {
      StageAgg& merged = out[stage];
      merged.count += agg.count;
      merged.sumNs += agg.sumNs;
    }
    return out;
  }

  /// Forgets every stage.
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stages_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<const char*, StageAgg> stages_;
};

/// The process-wide stage accumulator.
inline StageStats& stageStats() {
  static StageStats instance;
  return instance;
}

/// Async-signal-safe stack of each thread's open ScopedSpans: a fixed
/// array of static stage-name pointers plus an atomic depth.  The crash
/// handler (crashdump.hpp) reads the crashing thread's own stack with
/// plain loads of static strings, no allocation, no locks.  Depths beyond
/// kMaxDepth keep counting but stop storing frames (the overflow is
/// visible as depth > kMaxDepth).
struct SpanFrameStack {
  static constexpr int kMaxDepth = 32;
  const char* frames[kMaxDepth] = {};
  std::atomic<int> depth{0};
};

/// This thread's frame stack (constant-initialized thread_local: safe to
/// touch from signal handlers once any span has run on the thread).
inline SpanFrameStack& spanFrames() noexcept {
  thread_local SpanFrameStack stack;
  return stack;
}

/// RAII pipeline-stage span named by a static string (a literal: the
/// frame stack, the stage registry, and the ring keep the pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept : name_(name) {
    if constexpr (kEnabled) {
      startNs_ = nowNs();
      SpanFrameStack& frames = spanFrames();
      depth_ = frames.depth.load(std::memory_order_relaxed);
      if (depth_ >= 0 && depth_ < SpanFrameStack::kMaxDepth) {
        frames.frames[depth_] = name;
      }
      frames.depth.store(depth_ + 1, std::memory_order_release);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if constexpr (kEnabled) {
      spanFrames().depth.store(depth_, std::memory_order_release);
      const std::uint64_t endNs = nowNs();
      stageStats().record(name_, endNs - startNs_);
      flightRecorder().record(FlightEventKind::kSpan,
                              static_cast<std::uint16_t>(depth_),
                              reinterpret_cast<std::uintptr_t>(name_),
                              startNs_, endNs);
    }
  }

 private:
  const char* name_;
  std::uint64_t startNs_ = 0;
  int depth_ = 0;
};

/// Chrome trace_event JSON of every flight ring: one "X" complete event
/// per retained event (microsecond timestamps), one track (tid) per
/// recording thread.  Spans carry their static name, category "stage",
/// and their depth; kernel events are named by kernel path, categorized
/// by event kind, and carry their qubit mask and aux value.  The
/// top-level "droppedEvents" counts events the rings evicted, so a
/// truncated trace is visible in the artifact itself.
inline std::string chromeTraceJson() {
  std::ostringstream body;
  body << std::fixed << std::setprecision(3);  // microseconds, exact ns
  std::uint64_t retained = 0, dropped = 0;
  for (const FlightThreadSnapshot& snap : flightRecorder().snapshot()) {
    dropped += snap.recorded - snap.events.size();
    for (const FlightEvent& event : snap.events) {
      const auto kind = static_cast<FlightEventKind>(event.kind);
      body << (retained++ == 0 ? "" : ",") << "{\"name\":\"";
      if (kind == FlightEventKind::kSpan) {
        body << jsonEscape(event.name) << "\",\"cat\":\"stage";
      } else {
        body << sim::kernelPathName(static_cast<sim::KernelPath>(event.path))
             << "\",\"cat\":\"" << flightEventKindName(kind);
      }
      body << "\",\"ph\":\"X\",\"ts\":" << event.startNs / 1e3
           << ",\"dur\":" << event.durationNs / 1e3
           << ",\"pid\":0,\"tid\":" << snap.threadId << ",\"args\":{";
      if (kind == FlightEventKind::kSpan) {
        body << "\"depth\":" << event.path << "}}";
      } else {
        body << "\"qubits\":" << event.qubitMask << ",\"aux\":" << event.aux
             << "}}";
      }
    }
  }
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ns\",\"droppedEvents\":" << dropped
      << ",\"retainedEvents\":" << retained << ",\"traceEvents\":["
      << body.str() << "]}";
  return out.str();
}

/// Writes chromeTraceJson() to `path`.  Returns false on I/O failure.
inline bool writeChromeTrace(const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << chromeTraceJson() << "\n";
  return static_cast<bool>(file);
}

}  // namespace qclab::obs
