#pragma once

/// \file crashdump.hpp
/// \brief Signal-safe crash diagnostics: dump the flight recorder, stage
/// stack, and counters to qclab-crash-<pid>.json when the process dies.
///
/// installCrashHandlers() arms SIGSEGV / SIGBUS / SIGILL / SIGFPE /
/// SIGABRT (on an alternate stack, so a blown stack still dumps) plus
/// std::terminate, and optionally SIGUSR1 for watchdog-style "dump but
/// keep running" pokes.  When one fires, the handler writes one JSON
/// object (schema "qclab-crash-v1") containing
///  - the signal and a pre-formatted build line,
///  - the crashing thread's active stage-span stack (the signal-safe
///    SpanFrameStack mirror maintained by ScopedSpan, trace.hpp),
///  - every plain counter of the QCLAB_OBS_COUNTERS table (metrics.hpp),
///    the per-path gate counts, the state-memory gauges, and the sentinel
///    counters (the string-sharded per-kind counters are deliberately
///    skipped: their snapshot takes mutexes and walks deques — not
///    signal-safe),
///  - the flight-recorder rings of every thread (flightrecorder.hpp),
///    newest kCrashDumpMaxEventsPerRing events each,
/// then restores the default disposition and re-raises, so the process
/// still dies with the correct signal for its supervisor.
///
/// EVERYTHING on the dump path is async-signal-safe: open/write/close,
/// strlen/memcpy, manual integer formatting, relaxed/acquire atomic loads,
/// and walks of immutable intrusive lists.  No malloc, no stdio, no
/// locks, no C++ streams.  The singletons it reads are forced into
/// existence at install time so a handler never runs a first-time static
/// constructor.  obs::dumpNow() exposes the same dump for non-fatal use
/// (watchdogs, debugging a hung run via SIGUSR1).
///
/// The dump lands in the current working directory, or $QCLAB_OBS_CRASH_DIR
/// when set (captured at install time); QCLAB_OBS_CRASH=off disables
/// installation entirely.  Under QCLAB_OBS_DISABLED, or off POSIX, every
/// entry point is an API-identical no-op returning false.

#include <cstdint>

#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/metrics.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/version.hpp"

#if !defined(QCLAB_OBS_DISABLED) && \
    (defined(__linux__) || defined(__APPLE__))
#define QCLAB_OBS_CRASH_POSIX 1
#endif

#ifdef QCLAB_OBS_CRASH_POSIX
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#endif

namespace qclab::obs {

/// Newest events dumped per flight ring (bounds the crash-file size; the
/// ring itself retains kFlightRingCapacity).
inline constexpr std::uint64_t kCrashDumpMaxEventsPerRing = 4096;

#ifdef QCLAB_OBS_CRASH_POSIX

namespace detail {

/// Static-storage signal name (signal-safe; strsignal is not).
inline const char* crashSignalName(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS:  return "SIGBUS";
    case SIGILL:  return "SIGILL";
    case SIGFPE:  return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGUSR1: return "SIGUSR1";
    case 0:       return "none";
  }
  return "signal";
}

/// Async-signal-safe JSON emitter over a file descriptor: write(2) only,
/// manual integer formatting, no allocation.
class CrashWriter {
 public:
  explicit CrashWriter(int fd) noexcept : fd_(fd) {}

  void raw(const char* data, std::size_t size) noexcept {
    while (size > 0) {
      const ssize_t written = ::write(fd_, data, size);
      if (written <= 0) return;  // EINTR/ENOSPC: best effort
      data += written;
      size -= static_cast<std::size_t>(written);
    }
  }

  void str(const char* s) noexcept { raw(s, std::strlen(s)); }

  void u64(std::uint64_t value) noexcept {
    char buffer[24];
    int i = sizeof(buffer);
    do {
      buffer[--i] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    raw(buffer + i, sizeof(buffer) - static_cast<std::size_t>(i));
  }

  void i64(std::int64_t value) noexcept {
    if (value < 0) {
      str("-");
      u64(static_cast<std::uint64_t>(-value));
    } else {
      u64(static_cast<std::uint64_t>(value));
    }
  }

  /// Doubles render as quoted fixed-point strings ("1.000000", "nan"):
  /// keeps the JSON well-formed without signal-unsafe printf formatting.
  void fixedQuoted(double value) noexcept {
    str("\"");
    if (!(value == value)) {
      str("nan");
    } else if (value > 1.8446744073709551e18 ||
               value < -1.8446744073709551e18) {
      str(value > 0 ? "inf" : "-inf");
    } else {
      if (value < 0) {
        str("-");
        value = -value;
      }
      const std::uint64_t whole = static_cast<std::uint64_t>(value);
      u64(whole);
      str(".");
      double frac = value - static_cast<double>(whole);
      for (int d = 0; d < 6; ++d) {
        frac *= 10.0;
        const int digit = static_cast<int>(frac);
        const char c = static_cast<char>('0' + (digit < 0   ? 0
                                                : digit > 9 ? 9
                                                            : digit));
        raw(&c, 1);
        frac -= digit;
      }
    }
    str("\"");
  }

 private:
  int fd_;
};

/// Install-time state: pre-formatted strings the handlers must not build
/// themselves, the once-guard, and the alternate stack.
struct CrashState {
  std::atomic<bool> installed{false};
  std::atomic<int> dumping{0};  ///< 0 idle, 1 a dump ran (or is running)
  char path[512] = {};          ///< "dir/qclab-crash-<pid>.json"
  char build[256] = {};         ///< buildInfo() captured at install
  char altStack[64 * 1024];
};

inline CrashState& crashState() noexcept {
  static CrashState state;
  return state;
}

/// The dump body (signal-safe; `sig` 0 = non-signal reasons).
inline void writeCrashDump(int fd, int sig, const char* reason) noexcept {
  CrashWriter w(fd);
  w.str("{\"schema\":\"qclab-crash-v1\",\"signal\":");
  w.i64(sig);
  w.str(",\"signal_name\":\"");
  w.str(crashSignalName(sig));
  w.str("\",\"reason\":\"");
  w.str(reason);
  w.str("\",\"pid\":");
  w.i64(static_cast<std::int64_t>(::getpid()));
  w.str(",\"build\":\"");
  w.str(crashState().build);
  w.str("\"");

  // Active stage-span stack of THIS thread (the crashing one): interned
  // static strings pushed by ScopedSpan, read with plain loads.
  w.str(",\"stage_stack\":[");
  const SpanFrameStack& frames = spanFrames();
  int depth = frames.depth.load(std::memory_order_acquire);
  if (depth > SpanFrameStack::kMaxDepth) depth = SpanFrameStack::kMaxDepth;
  bool first = true;
  for (int d = 0; d < depth; ++d) {
    const char* frame = frames.frames[d];
    if (frame == nullptr) continue;
    if (!first) w.str(",");
    first = false;
    w.str("\"");
    w.str(frame);
    w.str("\"");
  }
  w.str("]");

  // Plain atomic counters (relaxed loads are signal-safe), every row of
  // the counter table.  The sharded per-kind map is skipped: snapshotting
  // it locks mutexes.
  const Metrics& m = metrics();
  w.str(",\"counters\":{\"gate_applications_by_path\":{");
  first = true;
  for (int p = 0; p < sim::kKernelPathCount; ++p) {
    const auto path = static_cast<sim::KernelPath>(p);
    const std::uint64_t count = m.gateApplications(path);
    if (count == 0) continue;
    if (!first) w.str(",");
    first = false;
    w.str("\"");
    w.str(sim::kernelPathName(path));
    w.str("\":");
    w.u64(count);
  }
  w.str("},\"current_state_bytes\":");
  w.u64(m.currentStateBytes());
  w.str(",\"peak_state_bytes\":");
  w.u64(m.peakStateBytes());
  for (const CounterRow& row : kCounterRows) {
    w.str(",\"");
    w.str(row.name);
    w.str("\":");
    w.u64(m.value(row.counter));
  }
  w.str("}");

  // Numerical-health sentinels at the moment of death.
  const Sentinel& s = sentinel();
  w.str(",\"sentinel\":{\"checks\":");
  w.u64(s.checks());
  w.str(",\"nan_detected\":");
  w.u64(s.nanDetected());
  w.str(",\"norm_alerts\":");
  w.u64(s.normAlerts());
  w.str(",\"last_norm_sq\":");
  w.fixedQuoted(s.lastNormSq());
  w.str(",\"max_amp_sq\":");
  w.fixedQuoted(s.maxAmpSq());
  w.str("}");

  // Flight-recorder rings: newest events per thread, oldest first.
  w.str(",\"flight\":{\"ring_capacity\":");
  w.u64(kFlightRingCapacity);
  w.str(",\"rings\":[");
  bool firstRing = true;
  for (const FlightRing* ring = flightRecorder().rings(); ring != nullptr;
       ring = ring->next) {
    if (!firstRing) w.str(",");
    firstRing = false;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    std::uint64_t retained =
        head < kFlightRingCapacity ? head : kFlightRingCapacity;
    if (retained > kCrashDumpMaxEventsPerRing) {
      retained = kCrashDumpMaxEventsPerRing;
    }
    w.str("{\"thread\":");
    w.u64(ring->threadId);
    w.str(",\"recorded\":");
    w.u64(head);
    w.str(",\"events\":[");
    const std::uint64_t start = head - retained;
    for (std::uint64_t i = 0; i < retained; ++i) {
      const FlightEvent& event =
          ring->events[(start + i) & (kFlightRingCapacity - 1)];
      if (i != 0) w.str(",");
      w.str("{\"t\":");
      w.u64(event.timeNs);
      w.str(",\"kind\":\"");
      w.str(flightEventKindName(
          static_cast<FlightEventKind>(event.kind)));
      w.str("\",\"path\":\"");
      w.str(event.path < static_cast<std::uint16_t>(sim::kKernelPathCount)
                ? sim::kernelPathName(
                      static_cast<sim::KernelPath>(event.path))
                : "unknown");
      w.str("\",\"mask\":");
      w.u64(event.qubitMask);
      w.str(",\"aux\":");
      w.u64(event.aux);
      w.str("}");
    }
    w.str("]}");
  }
  w.str("]}}\n");
}

/// Formats "dir/qclab-crash-<pid>.json" into `buffer` signal-safely
/// (`dir` must be a plain captured string, not getenv from a handler).
inline void formatCrashPath(char* buffer, std::size_t size,
                            const char* dir) noexcept {
  std::size_t n = 0;
  const auto append = [&](const char* s) noexcept {
    while (*s != '\0' && n + 1 < size) buffer[n++] = *s++;
  };
  append(dir == nullptr || dir[0] == '\0' ? "." : dir);
  append("/qclab-crash-");
  char pid[24];
  int i = sizeof(pid);
  auto value = static_cast<std::uint64_t>(::getpid());
  do {
    pid[--i] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (i < static_cast<int>(sizeof(pid)) && n + 1 < size) {
    buffer[n++] = pid[i++];
  }
  append(".json");
  buffer[n] = '\0';
}

/// Opens the dump file and writes one dump.  Signal-safe.
inline bool dumpTo(const char* path, int sig, const char* reason) noexcept {
  if (path == nullptr || path[0] == '\0') return false;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  writeCrashDump(fd, sig, reason);
  ::close(fd);
  return true;
}

/// Fatal-signal handler: dump once, then die with the original signal.
inline void crashSignalHandler(int sig) noexcept {
  CrashState& state = crashState();
  int expected = 0;
  if (state.dumping.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
    dumpTo(state.path, sig, "fatal-signal");
  }
  // Restore the default disposition and re-raise so the exit status (and
  // any core dump) reflects the real signal, not this handler.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// std::terminate handler: dump once, then abort (the SIGABRT handler
/// sees the guard already taken and just re-raises the default).
[[noreturn]] inline void crashTerminateHandler() {
  CrashState& state = crashState();
  int expected = 0;
  if (state.dumping.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel)) {
    dumpTo(state.path, 0, "terminate");
  }
  std::abort();
}

/// SIGUSR1 handler: dump and KEEP RUNNING (watchdog "what are you doing
/// right now" poke on a hung process).
inline void crashUsr1Handler(int) noexcept {
  CrashState& state = crashState();
  int expected = 0;
  if (!state.dumping.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
    return;  // a fatal dump is in flight; stay out of its way
  }
  dumpTo(state.path, SIGUSR1, "sigusr1");
  state.dumping.store(0, std::memory_order_release);
}

}  // namespace detail

/// Arms the crash handlers (idempotent; returns true when armed).  Call
/// early — before the workload — from a normal context: installation
/// pre-formats the dump path and build line, raises the alternate signal
/// stack, and touches every singleton the handlers read so no handler
/// ever runs a first-time static constructor.  `handleSigusr1` adds the
/// non-fatal SIGUSR1 dump.  QCLAB_OBS_CRASH=off (or 0) disables.
inline bool installCrashHandlers(bool handleSigusr1 = false) {
  if (const char* env = std::getenv("QCLAB_OBS_CRASH")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
      return false;
    }
  }
  detail::CrashState& state = detail::crashState();
  bool expected = false;
  if (!state.installed.compare_exchange_strong(expected, true)) {
    return true;  // already armed
  }

  // Pre-format everything a handler must not build itself.
  detail::formatCrashPath(state.path, sizeof(state.path),
                          std::getenv("QCLAB_OBS_CRASH_DIR"));
  std::snprintf(state.build, sizeof(state.build), "%s", buildInfo());

  // Force-construct the singletons the dump path reads.
  (void)metrics();
  (void)flightRecorder().enabled();
  (void)sentinel().checks();
  (void)tracer().enabled();
  (void)spanFrames().depth.load(std::memory_order_relaxed);

  stack_t altStack = {};
  altStack.ss_sp = state.altStack;
  altStack.ss_size = sizeof(state.altStack);
  ::sigaltstack(&altStack, nullptr);

  struct sigaction action = {};
  action.sa_handler = &detail::crashSignalHandler;
  action.sa_flags = SA_ONSTACK;
  ::sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    ::sigaction(sig, &action, nullptr);
  }
  std::set_terminate(&detail::crashTerminateHandler);

  if (handleSigusr1) {
    struct sigaction usr1 = {};
    usr1.sa_handler = &detail::crashUsr1Handler;
    usr1.sa_flags = SA_RESTART;
    ::sigemptyset(&usr1.sa_mask);
    ::sigaction(SIGUSR1, &usr1, nullptr);
  }
  return true;
}

/// True when installCrashHandlers() armed the handlers in this process.
inline bool crashHandlersInstalled() noexcept {
  return detail::crashState().installed.load(std::memory_order_acquire);
}

/// Writes one crash-style dump NOW and keeps running.  `path` overrides
/// the installed qclab-crash-<pid>.json destination.  Signal-safe when
/// the handlers are installed (the path pre-exists); from normal code it
/// works standalone too (formatting a default path on the fly).  Returns
/// false when the file cannot be written.
inline bool dumpNow(const char* path = nullptr) noexcept {
  if (path == nullptr || path[0] == '\0') {
    detail::CrashState& state = detail::crashState();
    if (state.installed.load(std::memory_order_acquire)) {
      return detail::dumpTo(state.path, 0, "manual");
    }
    char local[512];
    detail::formatCrashPath(local, sizeof(local),
                            std::getenv("QCLAB_OBS_CRASH_DIR"));
    return detail::dumpTo(local, 0, "manual");
  }
  return detail::dumpTo(path, 0, "manual");
}

#else  // !QCLAB_OBS_CRASH_POSIX

/// No-op crash diagnostics (obs disabled, or no POSIX signals).
inline bool installCrashHandlers(bool = false) { return false; }
inline bool crashHandlersInstalled() noexcept { return false; }
inline bool dumpNow(const char* = nullptr) noexcept { return false; }

#endif  // QCLAB_OBS_CRASH_POSIX

}  // namespace qclab::obs
