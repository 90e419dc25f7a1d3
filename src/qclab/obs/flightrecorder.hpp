#pragma once

/// \file flightrecorder.hpp
/// \brief Always-on, lock-free per-thread flight recorder.
///
/// The postmortem complement of the counters and traces: a fixed-size ring
/// buffer per recording thread holds the last ~64k compact binary events
/// (gate kind of event, kernel path, qubit mask, timestamp, batch member
/// index), so when a long-running process crashes or hangs, the crash
/// handler (crashdump.hpp) — or an explicit obs::dumpNow() — can show what
/// every thread was doing *right before* things went wrong.  No file I/O
/// happens on the hot path; recording is one steady-clock read plus plain
/// stores and a release store of the ring head.
///
/// Design constraints, in order:
///  - RECORDING must be cheap enough to leave on (<3% end-to-end on the
///    GHZ n=20 overhead bench, enforced by bench_obs_overhead): the ring
///    is thread-private, so there is no sharing, no CAS, no mutex on the
///    record path — the only synchronization is the release store that
///    publishes the new head to readers.
///  - READING must be possible from an async signal handler on a crashed
///    process: rings are heap blocks published onto an atomic intrusive
///    list and NEVER freed, so a handler can walk the list with plain
///    loads regardless of which thread crashed.  Reads race benignly with
///    in-flight writers (a torn event at the ring head of a *live* thread
///    can misreport that one slot; every other slot is quiescent).
///
/// The recorder is enabled by default ("always-on black box");
/// QCLAB_OBS_FLIGHT=off (or 0) disables it at process start, and
/// enable()/disable() toggle it at runtime (the overhead bench uses this
/// to measure the plain side honestly).  Under QCLAB_OBS_DISABLED the
/// recorder stays off, its recording body is discarded, and no ring
/// memory is allocated.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/trace.hpp"

namespace qclab::obs {

/// What a flight-recorder event describes.
enum class FlightEventKind : std::uint16_t {
  kGate = 0,       ///< one gate application (InstrumentedBackend)
  kFusedBlock,     ///< one fused-block full-state sweep (fusion engine)
  kBlockedRun,     ///< one cache-blocked chunked sweep (aux = blocks in run)
  kBatchMember,    ///< one batched member executed (aux = member index)
  kSentinelAlert,  ///< a numerical-health violation (aux: 1 NaN, 2 norm)
};

/// Stable short name of an event kind (static storage: safe to read from
/// signal handlers).
inline const char* flightEventKindName(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kGate:          return "gate";
    case FlightEventKind::kFusedBlock:    return "fused-block";
    case FlightEventKind::kBlockedRun:    return "blocked-run";
    case FlightEventKind::kBatchMember:   return "batch-member";
    case FlightEventKind::kSentinelAlert: return "sentinel-alert";
  }
  return "unknown";
}

/// One compact binary event (24 bytes).  Trivially default-constructible
/// on purpose, so a new ring leaves its slots unwritten (see FlightRing).
struct FlightEvent {
  std::uint64_t timeNs;     ///< ns since the tracer epoch
  std::uint64_t qubitMask;  ///< bit q set = qubit q involved (q < 64)
  std::uint32_t aux;        ///< kind-specific extra (batch member, ...)
  std::uint16_t kind;       ///< FlightEventKind
  std::uint16_t path;       ///< sim::KernelPath of the work
};

/// Events retained per recording thread (power of two).
inline constexpr std::size_t kFlightRingCapacity = std::size_t{1} << 16;

/// Bitmask over qubit indices < 64 (qubits beyond 64 are dropped from the
/// mask, not from the event).
inline std::uint64_t qubitMask64(const std::vector<int>& qubits) noexcept {
  std::uint64_t mask = 0;
  for (const int q : qubits) {
    if (q >= 0 && q < 64) mask |= std::uint64_t{1} << q;
  }
  return mask;
}

/// Copy of one thread's ring for reporting.
struct FlightThreadSnapshot {
  std::uint32_t threadId = 0;       ///< recorder-assigned sequential id
  std::uint64_t recorded = 0;       ///< events ever recorded by the thread
  std::vector<FlightEvent> events;  ///< retained events, oldest first
};

/// One thread's ring.  Heap-allocated on the owning thread's first record,
/// pushed onto an atomic intrusive list, and intentionally never freed so
/// crash handlers can walk rings of exited threads.  Up to ~1.5 MB per
/// thread that ever recorded: the events are left uninitialized, so a
/// page is committed only when a record first writes into it, and
/// readers touch only the slots below `head`.
struct FlightRing {
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded (monotonic)
  std::uint32_t threadId = 0;
  FlightRing* next = nullptr;  ///< intrusive list, newest ring first
  FlightEvent events[kFlightRingCapacity];
};

/// The process-wide flight recorder.
class FlightRecorder {
 public:
  FlightRecorder() {
    if constexpr (kEnabled) {
      const char* env = std::getenv("QCLAB_OBS_FLIGHT");
      if (env != nullptr &&
          (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0)) {
        enabled_.store(false, std::memory_order_relaxed);
      }
    }
  }

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return kEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// Records one event into this thread's ring (lock-free; the ring is
  /// created on the thread's first record).
  void record(FlightEventKind kind, std::uint16_t path,
              std::uint64_t qubitMask, std::uint32_t aux = 0) noexcept {
    if constexpr (kEnabled) {
      if (!enabled()) return;
      FlightRing* ring = localRing();
      const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
      FlightEvent& slot = ring->events[head & (kFlightRingCapacity - 1)];
      slot.timeNs = tracer().nowNs();
      slot.qubitMask = qubitMask;
      slot.aux = aux;
      slot.kind = static_cast<std::uint16_t>(kind);
      slot.path = path;
      ring->head.store(head + 1, std::memory_order_release);
    }
  }

  /// Head of the ring list for lock-free walks (crash handler).  Each
  /// ring's `next` and `threadId` are immutable after publication; `head`
  /// is an atomic the walker loads with acquire.
  const FlightRing* rings() const noexcept {
    return ringsHead_.load(std::memory_order_acquire);
  }

  /// Number of threads that ever recorded.
  std::size_t threadCount() const noexcept {
    std::size_t n = 0;
    for (const FlightRing* ring = rings(); ring != nullptr;
         ring = ring->next) {
      ++n;
    }
    return n;
  }

  /// Total events ever recorded across all threads.
  std::uint64_t totalRecorded() const noexcept {
    std::uint64_t total = 0;
    for (const FlightRing* ring = rings(); ring != nullptr;
         ring = ring->next) {
      total += ring->head.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Per-thread copies of the retained events, oldest first (reporting /
  /// tests; NOT signal-safe — handlers walk rings() directly).
  std::vector<FlightThreadSnapshot> snapshot() const {
    std::vector<FlightThreadSnapshot> out;
    for (const FlightRing* ring = rings(); ring != nullptr;
         ring = ring->next) {
      FlightThreadSnapshot snap;
      snap.threadId = ring->threadId;
      snap.recorded = ring->head.load(std::memory_order_acquire);
      const std::uint64_t retained =
          snap.recorded < kFlightRingCapacity ? snap.recorded
                                              : kFlightRingCapacity;
      snap.events.reserve(static_cast<std::size_t>(retained));
      const std::uint64_t start = snap.recorded - retained;
      for (std::uint64_t i = 0; i < retained; ++i) {
        snap.events.push_back(
            ring->events[(start + i) & (kFlightRingCapacity - 1)]);
      }
      out.push_back(std::move(snap));
    }
    return out;
  }

  /// Rewinds every ring (start of a measured region).  Racy against
  /// concurrently recording threads — call from quiescent points only, as
  /// with every other obs reset.
  void reset() noexcept {
    for (const FlightRing* ring = rings(); ring != nullptr;
         ring = ring->next) {
      const_cast<FlightRing*>(ring)->head.store(0,
                                                std::memory_order_relaxed);
    }
  }

 private:
  /// This thread's ring, allocated and published on first use.
  FlightRing* localRing() {
    thread_local FlightRing* cached = nullptr;
    if (cached == nullptr) {
      FlightRing* ring = new FlightRing;  // default-init: events unwritten
      ring->threadId = nextThreadId_.fetch_add(1, std::memory_order_relaxed);
      FlightRing* head = ringsHead_.load(std::memory_order_relaxed);
      do {
        ring->next = head;
      } while (!ringsHead_.compare_exchange_weak(head, ring,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed));
      cached = ring;
    }
    return cached;
  }

  std::atomic<bool> enabled_{true};
  std::atomic<FlightRing*> ringsHead_{nullptr};
  std::atomic<std::uint32_t> nextThreadId_{0};
};

/// The process-wide recorder.
inline FlightRecorder& flightRecorder() {
  static FlightRecorder instance;
  return instance;
}

}  // namespace qclab::obs
