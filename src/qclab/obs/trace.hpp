#pragma once

/// \file trace.hpp
/// \brief Scoped-span tracer with Chrome trace_event export.
///
/// A Span records wall-clock begin/end of a region (a whole simulate call,
/// a single gate application) into a fixed-capacity ring buffer; when the
/// buffer is full the oldest events are overwritten and counted as
/// dropped.  The buffer exports as Chrome trace_event JSON ("X" complete
/// events), loadable in about:tracing or https://ui.perfetto.dev — nesting
/// is inferred from time containment on the single displayed track.
///
/// The tracer is disabled by default (a disabled tracer only costs one
/// branch per span); enable() turns recording on.
///
/// ScopedSpan is the hierarchical variant for pipeline stages (QASM parse,
/// optimize, fusion planning, state allocation, execute, measurement): a
/// thread-local stack links each span to its enclosing parent, the parent
/// name and depth export into the Chrome trace "args", and every span
/// additionally accumulates (count, summed ns) into the always-on
/// StageStats registry — so reports carry a "stages" breakdown even when
/// the tracer itself is off.  Under QCLAB_OBS_DISABLED the recording
/// bodies are discarded: the tracer stays off, spans record nothing, and
/// the Chrome trace export is an empty, valid trace.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/json.hpp"

namespace qclab::obs {

/// One completed span.
struct TraceEvent {
  std::string name;          ///< span label (gate mnemonic, "simulate", ...)
  const char* category;      ///< coarse grouping: "gate", "circuit", ...
  std::uint64_t startNs;     ///< begin, ns since tracer epoch
  std::uint64_t durationNs;  ///< duration in ns
  std::string parent;        ///< enclosing ScopedSpan name ("" = root)
  int depth = 0;             ///< nesting depth (0 = root)
};

/// Accumulated wall time of one pipeline stage.
struct StageAgg {
  std::uint64_t count = 0;  ///< completed spans of this stage
  std::uint64_t sumNs = 0;  ///< summed span durations in ns
};

/// Ring-buffered span recorder.
class Tracer {
 public:
  /// `capacity` = maximum retained spans (oldest evicted beyond that).
  explicit Tracer(std::size_t capacity = std::size_t{1} << 16)
      : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {}

  /// Turns recording on/off.  Off (the default) makes spans ~free.
  void enable() noexcept { enabled_ = kEnabled; }
  void disable() noexcept { enabled_ = false; }
  bool enabled() const noexcept { return kEnabled && enabled_; }

  /// Discards all recorded events and the dropped count.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// Nanoseconds since this tracer was constructed.
  std::uint64_t nowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends a completed span (ring semantics when at capacity).  The
  /// optional `parent`/`depth` carry ScopedSpan nesting into the export.
  void record(std::string name, const char* category, std::uint64_t startNs,
              std::uint64_t durationNs, std::string parent = "",
              int depth = 0) {
    if constexpr (kEnabled) {
      if (!enabled_ || capacity_ == 0) return;
      const std::lock_guard<std::mutex> lock(mutex_);
      TraceEvent event{std::move(name), category,          startNs,
                       durationNs,      std::move(parent), depth};
      if (events_.size() < capacity_) {
        events_.push_back(std::move(event));
      } else {
        events_[head_] = std::move(event);
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
      }
    }
  }

  /// Recorded events, oldest first.
  std::vector<TraceEvent> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> ordered;
    ordered.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      ordered.push_back(events_[(head_ + i) % events_.size()]);
    }
    return ordered;
  }

  /// Number of recorded (retained) events.
  std::size_t nbEvents() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }

  /// Number of events evicted because the ring was full.
  std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

  /// Chrome trace_event JSON of the retained spans ("X" complete events,
  /// microsecond timestamps).  Open in about:tracing or Perfetto.  The
  /// top-level "droppedEvents" records ring evictions so truncation is
  /// visible in the artifact itself; ScopedSpan nesting exports as
  /// per-event args.
  std::string chromeTraceJson() const {
    std::ostringstream out;
    const auto ordered = events();
    out << "{\"displayTimeUnit\":\"ns\",\"droppedEvents\":" << dropped()
        << ",\"retainedEvents\":" << ordered.size() << ",\"traceEvents\":[";
    bool first = true;
    for (const auto& event : ordered) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << jsonEscape(event.name) << "\",\"cat\":\""
          << jsonEscape(event.category) << "\",\"ph\":\"X\",\"ts\":"
          << static_cast<double>(event.startNs) / 1e3 << ",\"dur\":"
          << static_cast<double>(event.durationNs) / 1e3
          << ",\"pid\":0,\"tid\":0";
      if (!event.parent.empty() || event.depth != 0) {
        out << ",\"args\":{\"parent\":\"" << jsonEscape(event.parent)
            << "\",\"depth\":" << event.depth << "}";
      }
      out << "}";
    }
    out << "]}";
    return out.str();
  }

  /// Writes chromeTraceJson() to `path`.  Returns false on I/O failure.
  bool writeChromeTrace(const std::string& path) const {
    std::ofstream file(path);
    if (!file) return false;
    file << chromeTraceJson() << "\n";
    return static_cast<bool>(file);
  }

 private:
  std::size_t capacity_;
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t head_ = 0;       // oldest element once the ring is full
  std::uint64_t dropped_ = 0;  // evicted events
};

/// The process-wide tracer.
inline Tracer& tracer() {
  static Tracer instance;
  return instance;
}

/// RAII span: records [construction, destruction) into a tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name, const char* category) noexcept
      : tracer_(tracer),
        name_(std::move(name)),
        category_(category),
        startNs_(tracer.enabled() ? tracer.nowNs() : 0),
        active_(tracer.enabled()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (active_) {
      tracer_.record(std::move(name_), category_, startNs_,
                     tracer_.nowNs() - startNs_);
    }
  }

 private:
  Tracer& tracer_;
  std::string name_;
  const char* category_;
  std::uint64_t startNs_;
  bool active_;
};

/// Always-on accumulation of pipeline-stage wall time.  Stages fire once
/// per simulate/parse/optimize call (never per gate), so a mutex-guarded
/// map is cheap; reports render the snapshot as the "stages" section even
/// when the tracer is disabled.
class StageStats {
 public:
  /// Adds one completed `ns` span to `stage`.
  void record(const std::string& stage, std::uint64_t ns) {
    if constexpr (kEnabled) {
      const std::lock_guard<std::mutex> lock(mutex_);
      StageAgg& agg = stages_[stage];
      ++agg.count;
      agg.sumNs += ns;
    }
  }

  /// Copy of every stage's totals.
  std::map<std::string, StageAgg> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stages_;
  }

  /// Forgets every stage.
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    stages_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, StageAgg> stages_;
};

/// The process-wide stage accumulator.
inline StageStats& stageStats() {
  static StageStats instance;
  return instance;
}

/// Async-signal-safe mirror of each thread's ScopedSpan nesting: a fixed
/// array of interned stage-key pointers plus an atomic depth.  The crash
/// handler (crashdump.hpp) reads the crashing thread's own stack, and the
/// SIGPROF sampling profiler (profiler.hpp) reads it from interrupted
/// threads — both with plain loads of static-lifetime strings, no
/// allocation, no locks.  Depths beyond kMaxDepth keep counting but stop
/// storing frames (the overflow is visible as depth > kMaxDepth).
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

/// Interns `key` into a process-lifetime pool and returns a stable
/// const char* — the currency of SpanFrameStack and the profiler's sample
/// table (pointer equality == key equality).  The pool is leaked on
/// purpose so crash handlers can read frames during static destruction.
inline const char* internStageKey(const std::string& key) {
  static std::mutex mutex;
  static std::set<std::string>* pool = new std::set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return pool->insert(key).first->c_str();
}

/// RAII hierarchical span for pipeline stages.  A thread-local stack links
/// nested ScopedSpans: each records its enclosing span's name and its
/// depth into the trace (when the tracer is enabled) and always
/// accumulates its duration into stageStats() under `stageKey` (defaults
/// to `name`; pass a stable key when the display name carries run-specific
/// detail such as the qubit count).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, const char* category = "stage",
                      std::string stageKey = std::string())
      : category_(category) {
    if constexpr (kEnabled) {
      name_ = std::move(name);
      stageKey_ = stageKey.empty() ? name_ : std::move(stageKey);
      startNs_ = tracer().nowNs();
      auto& stack = spanStack();
      if (!stack.empty()) parent_ = *stack.back();
      depth_ = static_cast<int>(stack.size());
      stack.push_back(&name_);
      // Mirror onto the signal-safe frame stack (interned pointer: stable
      // for the process lifetime, readable from crash/profiler handlers).
      SpanFrameStack& frames = spanFrames();
      const int d = frames.depth.load(std::memory_order_relaxed);
      if (d >= 0 && d < SpanFrameStack::kMaxDepth) {
        frames.frames[d] = internStageKey(stageKey_);
      }
      frames.depth.store(d + 1, std::memory_order_release);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if constexpr (kEnabled) {
      auto& stack = spanStack();
      if (!stack.empty() && stack.back() == &name_) stack.pop_back();
      SpanFrameStack& frames = spanFrames();
      const int d = frames.depth.load(std::memory_order_relaxed);
      if (d > 0) frames.depth.store(d - 1, std::memory_order_release);
      const std::uint64_t durationNs = tracer().nowNs() - startNs_;
      stageStats().record(stageKey_, durationNs);
      if (tracer().enabled()) {
        tracer().record(std::move(name_), category_, startNs_, durationNs,
                        std::move(parent_), depth_);
      }
    }
  }

 private:
  static std::vector<const std::string*>& spanStack() {
    thread_local std::vector<const std::string*> stack;
    return stack;
  }

  std::string name_;
  std::string stageKey_;
  std::string parent_;
  const char* category_;
  std::uint64_t startNs_ = 0;
  int depth_ = 0;
};

}  // namespace qclab::obs
