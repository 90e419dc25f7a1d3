#pragma once

/// \file flightrecorder.hpp
/// \brief The one event store of qclab::obs: lock-free per-thread rings.
///
/// Each recording thread owns a ring of its last ~64k compact events,
/// filled by two writers: kernel timers (PathTimer, histogram.hpp) write
/// one event per timed gate, fused block, blocked run or batch member —
/// start, duration, kernel path, qubit mask or index — while the recorder
/// is enabled (the default) or tracing is on; stage spans (ScopedSpan,
/// trace.hpp) write one event per closed span only while tracing is on,
/// so a thread running nothing but spans allocates no ring.  Two views
/// read the rings: the Chrome trace export (trace.hpp) and the crash dump
/// (crashdump.hpp).
///
/// Design constraints, in order:
///  - RECORDING must be cheap enough to leave on (<3% end-to-end on the
///    GHZ n=20 overhead bench, enforced by bench_obs_overhead): the ring
///    is thread-private, so there is no sharing, no CAS, no mutex on the
///    record path — only plain stores (release-ordered words, then the
///    release store that publishes the new head to readers).
///  - READING must be possible from an async signal handler on a crashed
///    process: rings are heap blocks published onto an atomic intrusive
///    list and NEVER freed, so a handler can walk the list with plain
///    loads regardless of which thread crashed.  A reader re-checks the
///    head after copying a slot (load()), so it never decodes — and
///    never follows the span-name pointer of — a slot that a live writer
///    may be overwriting.
///
/// QCLAB_OBS_FLIGHT=off (or 0) disables kernel-event recording at process
/// start, and enable()/disable() toggle it at runtime (the overhead bench
/// uses this to measure the plain side honestly).  Under
/// QCLAB_OBS_DISABLED the recorder and tracing stay off, the recording
/// body is discarded, and no ring memory is allocated.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "qclab/obs/enabled.hpp"

namespace qclab::obs {

/// Steady-clock nanoseconds: the timestamp of every ring event.
inline std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What a flight-recorder event describes.
enum class FlightEventKind : std::uint16_t {
  kGate = 0,       ///< one gate application (InstrumentedBackend)
  kFusedBlock,     ///< one fused-block full-state sweep (fusion engine)
  kBlockedRun,     ///< one cache-blocked chunked sweep (aux = blocks in run)
  kBatchMember,    ///< one batched member executed (aux = member index)
  kSentinelAlert,  ///< a numerical-health violation (aux: 1 NaN, 2 norm)
  kSpan,           ///< one closed stage span (tracing only)
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
    case FlightEventKind::kSpan:          return "span";
  }
  return "unknown";
}

/// One event as readers see it (decoded from a 24-byte ring slot).
struct FlightEvent {
  std::uint64_t startNs = 0;     ///< begin, nowNs() clock
  std::uint64_t durationNs = 0;  ///< end - begin
  std::uint64_t qubitMask = 0;   ///< gate / fused block: bit q = qubit q
  std::uint64_t aux = 0;         ///< blocked run, batch member, sentinel
  const char* name = nullptr;    ///< span: its static stage name
  std::uint16_t kind = 0;        ///< FlightEventKind
  std::uint16_t path = 0;        ///< sim::KernelPath, or a span's depth
};

/// One ring slot: the start time, a payload word (qubit mask, aux value,
/// or span-name pointer, by kind), and the duration packed with the kind
/// and the kernel path or span depth.  Trivially default-constructible on
/// purpose, so a new ring leaves its slots unwritten (see FlightRing).
struct FlightSlot {
  std::uint64_t words[3];
};

/// Slots per recording thread (power of two).  Readers see the newest
/// kFlightRingCapacity - 1 events: the oldest slot is the one the next
/// record overwrites.
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
/// thread that ever recorded: the slots are left uninitialized, so a
/// page is committed only when a record first writes into it, and
/// readers touch only the slots below `head`.
struct FlightRing {
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded (monotonic)
  std::uint32_t threadId = 0;
  FlightRing* next = nullptr;  ///< intrusive list, newest ring first
  FlightSlot slots[kFlightRingCapacity];
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

  /// Kernel-event recording (on by default).
  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return kEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// The tracing switch (off by default): spans record only while it is
  /// on, kernel events also while the recorder itself is disabled.
  void enableTracing() noexcept {
    tracing_.store(true, std::memory_order_relaxed);
  }
  void disableTracing() noexcept {
    tracing_.store(false, std::memory_order_relaxed);
  }
  bool tracing() const noexcept {
    return kEnabled && tracing_.load(std::memory_order_relaxed);
  }

  /// Records one event spanning [startNs, endNs) into this thread's ring
  /// (lock-free; the ring is created on the thread's first record).
  /// `payload` is the qubit mask of gate and fused-block events, the
  /// span-name pointer of spans, and the aux value of the other kinds;
  /// `path` is the kernel path, or a span's depth.  Durations keep 56
  /// bits (over two years).
  void record(FlightEventKind kind, std::uint16_t path,
              std::uint64_t payload, std::uint64_t startNs,
              std::uint64_t endNs) noexcept {
    if constexpr (kEnabled) {
      if (!tracing() && (kind == FlightEventKind::kSpan || !enabled())) {
        return;
      }
      FlightRing* ring = localRing();
      const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
      FlightSlot& slot = ring->slots[head & (kFlightRingCapacity - 1)];
      const std::uint64_t duration = endNs - startNs;
      store(slot.words[0], startNs);
      store(slot.words[1], payload);
      store(slot.words[2],
            (duration < kDurationMask ? duration : kDurationMask) |
                static_cast<std::uint64_t>(kind) << 56 |
                static_cast<std::uint64_t>(path < 31 ? path : 31) << 59);
      ring->head.store(head + 1, std::memory_order_release);
    }
  }

  /// Oldest event index a reader may load from a ring whose head is
  /// `head` (FlightRing::head): older events are evicted.
  static std::uint64_t firstReadable(std::uint64_t head) noexcept {
    return head < kFlightRingCapacity ? 0 : head - kFlightRingCapacity + 1;
  }

  /// Copies event `index` of `ring` into `out`.  Returns false when the
  /// event was never recorded, or was overwritten — possibly mid-copy —
  /// by the ring's live writer; `out` is then not decoded.
  /// Async-signal-safe (atomic loads only).
  static bool load(const FlightRing& ring, std::uint64_t index,
                   FlightEvent& out) noexcept {
    if (index >= ring.head.load(std::memory_order_acquire)) return false;
    const FlightSlot& slot = ring.slots[index & (kFlightRingCapacity - 1)];
    const std::uint64_t start = load(slot.words[0]);
    const std::uint64_t payload = load(slot.words[1]);
    const std::uint64_t packed = load(slot.words[2]);
    // The writer of event index + capacity overwrites this slot; it
    // starts only after head reached that value.
    if (ring.head.load(std::memory_order_relaxed) >=
        index + kFlightRingCapacity) {
      return false;
    }
    const auto kind = static_cast<FlightEventKind>((packed >> 56) & 7);
    out = FlightEvent{};
    out.startNs = start;
    out.durationNs = packed & kDurationMask;
    out.kind = static_cast<std::uint16_t>(kind);
    out.path = static_cast<std::uint16_t>(packed >> 59);
    if (kind == FlightEventKind::kSpan) {
      out.name = reinterpret_cast<const char*>(payload);
    } else if (kind == FlightEventKind::kGate ||
               kind == FlightEventKind::kFusedBlock) {
      out.qubitMask = payload;
    } else {
      out.aux = payload;
    }
    return true;
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
    for (const FlightRing* ring = rings(); ring; ring = ring->next) ++n;
    return n;
  }

  /// Total events ever recorded across all threads.
  std::uint64_t totalRecorded() const noexcept {
    std::uint64_t total = 0;
    for (const FlightRing* ring = rings(); ring; ring = ring->next) {
      total += ring->head.load(std::memory_order_acquire);
    }
    return total;
  }

  /// Events evicted because their ring was full.
  std::uint64_t dropped() const noexcept {
    std::uint64_t total = 0;
    for (const FlightRing* ring = rings(); ring; ring = ring->next) {
      total += firstReadable(ring->head.load(std::memory_order_acquire));
    }
    return total;
  }

  /// Per-thread copies of the retained events, oldest first, skipping any
  /// slot a live writer overwrote during the copy (reporting / tests; NOT
  /// signal-safe — handlers walk rings() with load()).
  std::vector<FlightThreadSnapshot> snapshot() const {
    std::vector<FlightThreadSnapshot> out;
    for (const FlightRing* ring = rings(); ring; ring = ring->next) {
      FlightThreadSnapshot snap;
      snap.threadId = ring->threadId;
      snap.recorded = ring->head.load(std::memory_order_acquire);
      const std::uint64_t first = firstReadable(snap.recorded);
      snap.events.reserve(static_cast<std::size_t>(snap.recorded - first));
      FlightEvent event;
      for (std::uint64_t i = first; i < snap.recorded; ++i) {
        if (load(*ring, i, event)) snap.events.push_back(event);
      }
      out.push_back(std::move(snap));
    }
    return out;
  }

  /// Rewinds every ring (start of a measured region).  Racy against
  /// concurrently recording threads — call from quiescent points only, as
  /// with every other obs reset.
  void reset() noexcept {
    for (const FlightRing* ring = rings(); ring; ring = ring->next) {
      const_cast<FlightRing*>(ring)->head.store(0,
                                                std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::uint64_t kDurationMask = (std::uint64_t{1} << 56) - 1;

  // Slot words are written by the owner with release and read with
  // acquire (a plain mov each on x86-64, and no data race): a reader
  // that sees any word of an event also sees every head published
  // before the event was written.
  using Word = std::atomic_ref<std::uint64_t>;
  static void store(std::uint64_t& word, std::uint64_t value) noexcept {
    Word(word).store(value, std::memory_order_release);
  }
  static std::uint64_t load(const std::uint64_t& word) noexcept {
    return Word(const_cast<std::uint64_t&>(word))
        .load(std::memory_order_acquire);
  }

  /// This thread's ring, allocated and published on first use.
  FlightRing* localRing() {
    thread_local FlightRing* cached = nullptr;
    if (cached == nullptr) {
      FlightRing* ring = new FlightRing;  // default-init: slots unwritten
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
  std::atomic<bool> tracing_{false};
  std::atomic<FlightRing*> ringsHead_{nullptr};
  std::atomic<std::uint32_t> nextThreadId_{0};
};

/// The process-wide recorder.
inline FlightRecorder& flightRecorder() {
  static FlightRecorder instance;
  return instance;
}

}  // namespace qclab::obs
