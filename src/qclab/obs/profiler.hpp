#pragma once

/// \file profiler.hpp
/// \brief SIGPROF sampling profiler attributing CPU time to stage spans
/// and kernel paths, exported as collapsed stacks (flamegraph input).
///
/// start() arms an ITIMER_PROF interval timer; the kernel delivers
/// SIGPROF to whichever thread is burning CPU, and the handler snapshots
/// that thread's signal-safe stage-span stack (SpanFrameStack, trace.hpp
/// — static strings maintained by ScopedSpan) plus the kernel
/// path currently under a PathTimer (histogram.hpp).  Each distinct
/// (frames, path) pair becomes one slot in a fixed open-addressed table;
/// a sample is a CAS-free count bump on an existing slot or a CAS claim
/// of an empty one.  No allocation, no locks, no formatting in the
/// handler — everything textual happens later in folded()/collapsed().
///
/// Output is the classic collapsed-stack format, one line per distinct
/// stack: "simulate;execute;path:avx2 42\n" — feed it straight to
/// flamegraph.pl or speedscope.  Samples that land outside any span and
/// any timer fold into "(untracked)".
///
/// The profiler is strictly opt-in (a repro binary's --obs-prof flag or
/// an explicit start() call): SIGPROF at ~1 kHz is cheap but not free,
/// and always-on duty belongs to the flight recorder.  Under
/// QCLAB_OBS_DISABLED, or off POSIX, the class is an API-identical no-op.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "qclab/obs/histogram.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/kernel_path.hpp"

#if !defined(QCLAB_OBS_DISABLED) && \
    (defined(__linux__) || defined(__APPLE__))
#define QCLAB_OBS_PROFILER_POSIX 1
#endif

#ifdef QCLAB_OBS_PROFILER_POSIX
#include <signal.h>
#include <sys/time.h>

#include <atomic>
#include <cstdio>
#endif

namespace qclab::obs {

#ifdef QCLAB_OBS_PROFILER_POSIX

namespace detail {
inline void profilerSignalHandler(int);
}  // namespace detail

/// The SIGPROF sampler.  One process-wide instance (profiler()).
class SamplingProfiler {
 public:
  static constexpr int kMaxFrames = 16;    ///< span frames kept per sample
  static constexpr int kTableSlots = 1024; ///< distinct (stack, path) pairs
  static constexpr int kMaxProbes = 16;    ///< linear probes before drop

  /// Arms SIGPROF at `hz` samples/second.  Returns false (and changes
  /// nothing) when already running.  997 Hz default: prime, so sampling
  /// does not phase-lock with millisecond-periodic work.
  bool start(int hz = 997) {
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) return false;
    if (hz <= 0) hz = 997;

    struct sigaction action = {};
    action.sa_handler = &detail::profilerSignalHandler;
    action.sa_flags = SA_RESTART;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGPROF, &action, &previousAction_);

    itimerval timer = {};
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec = 1000000 / hz;
    if (timer.it_interval.tv_usec == 0) timer.it_interval.tv_usec = 1;
    timer.it_value = timer.it_interval;
    ::setitimer(ITIMER_PROF, &timer, nullptr);
    return true;
  }

  /// Disarms the timer and restores the previous SIGPROF disposition.
  void stop() {
    bool expected = true;
    if (!running_.compare_exchange_strong(expected, false)) return;
    itimerval off = {};
    ::setitimer(ITIMER_PROF, &off, nullptr);
    ::sigaction(SIGPROF, &previousAction_, nullptr);
  }

  bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }

  /// The handler body: attribute one sample to the interrupted thread's
  /// current (span frames, kernel path).  Async-signal-safe.
  void handleSample() noexcept {
    samples_.fetch_add(1, std::memory_order_relaxed);

    // Snapshot this thread's span frames (static strings).
    const SpanFrameStack& spanStack = spanFrames();
    int depth = spanStack.depth.load(std::memory_order_acquire);
    if (depth > kMaxFrames) depth = kMaxFrames;
    if (depth > SpanFrameStack::kMaxDepth) depth = SpanFrameStack::kMaxDepth;
    const char* frames[kMaxFrames];
    int kept = 0;
    for (int d = 0; d < depth; ++d) {
      const char* frame = spanStack.frames[d];
      if (frame != nullptr) frames[kept++] = frame;
    }
    const int path = detail::currentTimedPath().load(std::memory_order_relaxed);

    // FNV-1a over the frame pointers + path (equal names behind distinct
    // pointers take distinct slots; folded() merges them).
    std::uint64_t hash = 1469598103934665603ull;
    const auto mix = [&hash](std::uint64_t value) noexcept {
      hash ^= value;
      hash *= 1099511628211ull;
    };
    for (int d = 0; d < kept; ++d) {
      mix(reinterpret_cast<std::uint64_t>(frames[d]));
    }
    mix(static_cast<std::uint64_t>(path) + 0x9e3779b9u);
    mix(static_cast<std::uint64_t>(kept));

    for (int probe = 0; probe < kMaxProbes; ++probe) {
      Slot& slot = table_[(hash + static_cast<std::uint64_t>(probe)) &
                          (kTableSlots - 1)];
      const int state = slot.state.load(std::memory_order_acquire);
      if (state == 2) {
        if (slot.depth == kept && slot.path == path) {
          bool match = true;
          for (int d = 0; d < kept; ++d) {
            if (slot.frames[d] != frames[d]) {
              match = false;
              break;
            }
          }
          if (match) {
            slot.count.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
        continue;  // occupied by a different stack: keep probing
      }
      if (state == 0) {
        int expected = 0;
        if (slot.state.compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
          slot.depth = kept;
          slot.path = path;
          for (int d = 0; d < kept; ++d) slot.frames[d] = frames[d];
          slot.count.store(1, std::memory_order_relaxed);
          slot.state.store(2, std::memory_order_release);
          return;
        }
      }
      // state == 1: another thread is mid-claim; try the next slot.
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total samples taken (including dropped ones).
  std::uint64_t samples() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Samples dropped because the table probe sequence was exhausted.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Number of distinct (stack, path) pairs observed.
  std::uint64_t distinctStacks() const noexcept {
    std::uint64_t n = 0;
    for (const Slot& slot : table_) {
      if (slot.state.load(std::memory_order_acquire) == 2) ++n;
    }
    return n;
  }

  /// Folded stacks: "frame;frame;path:<name>" -> sample count.  Merges
  /// slots that render identically.  NOT signal-safe.
  std::map<std::string, std::uint64_t> folded() const {
    std::map<std::string, std::uint64_t> out;
    for (const Slot& slot : table_) {
      if (slot.state.load(std::memory_order_acquire) != 2) continue;
      std::string key;
      for (int d = 0; d < slot.depth; ++d) {
        if (!key.empty()) key += ';';
        key += slot.frames[d];
      }
      if (slot.path >= 0 && slot.path < sim::kKernelPathCount) {
        if (!key.empty()) key += ';';
        key += "path:";
        key += sim::kernelPathName(static_cast<sim::KernelPath>(slot.path));
      }
      if (key.empty()) key = "(untracked)";
      out[key] += slot.count.load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Collapsed-stack text, one "stack count\n" line per distinct stack,
  /// sorted by stack name — direct flamegraph.pl / speedscope input.
  std::string collapsed() const {
    std::string out;
    for (const auto& [stack, count] : folded()) {
      out += stack;
      out += ' ';
      out += std::to_string(count);
      out += '\n';
    }
    return out;
  }

  /// Writes collapsed() to `path`.  Returns false on I/O failure.
  bool writeCollapsed(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const std::string text = collapsed();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    return std::fclose(file) == 0 && ok;
  }

  /// Clears the table and counters.  Refuses while running (the handler
  /// could race a half-cleared slot).  Returns true when cleared.
  bool reset() noexcept {
    if (running()) return false;
    for (Slot& slot : table_) {
      slot.state.store(0, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.depth = 0;
      slot.path = -1;
      for (const char*& frame : slot.frames) frame = nullptr;
    }
    samples_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    return true;
  }

 private:
  /// One distinct (stack, path) aggregate.  state: 0 empty, 1 claiming,
  /// 2 ready.  frames/depth/path are written exactly once, between the
  /// claim and the release-store of state 2.
  struct Slot {
    std::atomic<int> state{0};
    std::atomic<std::uint64_t> count{0};
    int depth = 0;
    int path = -1;
    const char* frames[kMaxFrames] = {};
  };

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> dropped_{0};
  struct sigaction previousAction_ = {};
  Slot table_[kTableSlots];
};

/// The process-wide sampling profiler.
inline SamplingProfiler& profiler() {
  static SamplingProfiler instance;
  return instance;
}

namespace detail {
inline void profilerSignalHandler(int) { profiler().handleSample(); }
}  // namespace detail

#else  // !QCLAB_OBS_PROFILER_POSIX

/// No-op profiler (obs disabled, or no POSIX signals).
class SamplingProfiler {
 public:
  static constexpr int kMaxFrames = 16;
  static constexpr int kTableSlots = 1024;

  bool start(int = 997) { return false; }
  void stop() {}
  bool running() const noexcept { return false; }
  void handleSample() noexcept {}
  std::uint64_t samples() const noexcept { return 0; }
  std::uint64_t dropped() const noexcept { return 0; }
  std::uint64_t distinctStacks() const noexcept { return 0; }
  std::map<std::string, std::uint64_t> folded() const { return {}; }
  std::string collapsed() const { return std::string(); }
  // Writes an empty file so `--obs-prof <path>` stays usable (and
  // successful) in disabled builds instead of failing the process.
  bool writeCollapsed(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return false;
    std::fclose(file);
    return true;
  }
  bool reset() noexcept { return true; }
};

inline SamplingProfiler& profiler() {
  static SamplingProfiler instance;
  return instance;
}

#endif  // QCLAB_OBS_PROFILER_POSIX

}  // namespace qclab::obs
