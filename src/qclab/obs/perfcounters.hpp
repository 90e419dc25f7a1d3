#pragma once

/// \file perfcounters.hpp
/// \brief Hardware performance-counter sampling per kernel path.
///
/// A PerfScope reads a perf_event_open counter group at construction and
/// destruction and accumulates the deltas — cycles, instructions, LLC
/// references/misses, stalled cycles, task-clock, page faults — into a
/// process-wide PerfRegistry keyed by sim::KernelPath.  PathTimer embeds a
/// PerfScope, so every timed kernel scope also attributes IPC and LLC miss
/// rate to its path.
///
/// Availability is layered and probed once per process:
///  - hardware group (cycles + instructions required; LLC refs/misses and
///    stalled-cycles join when the PMU offers them),
///  - software group (task-clock, page-faults) independently, as many
///    virtualized hosts expose no PMU at all (perf_event_open returns
///    ENOENT for hardware events),
///  - neither: PerfCapability::reason carries the errno text and reports
///    render an explicit "unavailable" marker instead of numbers.
///
/// Sampling is additionally gated behind PerfRegistry::enable() (off by
/// default) so unit tests and library users pay only one branch per scope.
/// Non-Linux hosts report an explicit unavailable marker, and under
/// QCLAB_OBS_DISABLED the sampling bodies are discarded.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>

#include "qclab/obs/enabled.hpp"
#include "qclab/sim/kernel_path.hpp"

#ifdef __linux__
#define QCLAB_OBS_PERF_LINUX 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>
#endif

namespace qclab::obs {

/// Accumulated counter totals (raw sums over recorded scopes).
struct PerfCounts {
  std::uint64_t samples = 0;        ///< recorded PerfScope lifetimes
  std::uint64_t cycles = 0;         ///< PERF_COUNT_HW_CPU_CYCLES
  std::uint64_t instructions = 0;   ///< PERF_COUNT_HW_INSTRUCTIONS
  std::uint64_t llcReferences = 0;  ///< PERF_COUNT_HW_CACHE_REFERENCES
  std::uint64_t llcMisses = 0;      ///< PERF_COUNT_HW_CACHE_MISSES
  std::uint64_t stalledCycles = 0;  ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND
  std::uint64_t taskClockNs = 0;    ///< PERF_COUNT_SW_TASK_CLOCK (ns)
  std::uint64_t pageFaults = 0;     ///< PERF_COUNT_SW_PAGE_FAULTS

  bool empty() const noexcept { return samples == 0; }

  /// Instructions per cycle (0 when cycles were not measured).
  double ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }

  /// LLC misses / LLC references (0 when references were not measured).
  double llcMissRate() const noexcept {
    return llcReferences == 0 ? 0.0
                              : static_cast<double>(llcMisses) /
                                    static_cast<double>(llcReferences);
  }

  /// Backend-stalled cycles / cycles (0 when either was not measured).
  double stallFraction() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(stalledCycles) /
                             static_cast<double>(cycles);
  }
};

/// Every PerfCounts field, in declaration order (registry cells, deltas).
inline constexpr std::uint64_t PerfCounts::*kPerfFields[] = {
    &PerfCounts::samples,      &PerfCounts::cycles,
    &PerfCounts::instructions, &PerfCounts::llcReferences,
    &PerfCounts::llcMisses,    &PerfCounts::stalledCycles,
    &PerfCounts::taskClockNs,  &PerfCounts::pageFaults};

/// What the host's PMU actually delivers, probed once per process.
struct PerfCapability {
  bool hardware = false;  ///< cycles + instructions opened
  bool llc = false;       ///< LLC references + misses joined the group
  bool stalled = false;   ///< stalled-cycles-backend joined the group
  bool software = false;  ///< task-clock + page-faults opened
  std::string reason;     ///< first failure, empty when fully available

  /// True when at least one counter group is live.
  bool any() const noexcept { return hardware || software; }
};

#ifdef QCLAB_OBS_PERF_LINUX

namespace detail {

inline long perfEventOpen(perf_event_attr* attr, pid_t pid, int cpu,
                          int groupFd, unsigned long flags) {
  return ::syscall(SYS_perf_event_open, attr, pid, cpu, groupFd, flags);
}

/// One perf fd group owned by a single thread; all members are read in one
/// PERF_FORMAT_GROUP syscall on the leader.
class PerfEventGroup {
 public:
  PerfEventGroup() = default;
  PerfEventGroup(const PerfEventGroup&) = delete;
  PerfEventGroup& operator=(const PerfEventGroup&) = delete;

  ~PerfEventGroup() {
    for (const int fd : fds_) ::close(fd);
  }

  /// Opens a self-monitoring counter into this group.  Returns the slot
  /// index in group reads, or -1 (errno set) when the event is rejected.
  int add(std::uint32_t type, std::uint64_t config) {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.exclude_kernel = 1;  // self-profiling under perf_event_paranoid=2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    const int fd = static_cast<int>(
        perfEventOpen(&attr, 0, -1, leader_, 0));
    if (fd < 0) return -1;
    if (leader_ < 0) leader_ = fd;
    fds_.push_back(fd);
    return static_cast<int>(fds_.size()) - 1;
  }

  /// Reads all group members (creation order) into `values`.
  bool read(std::uint64_t* values, std::size_t capacity) const {
    if (leader_ < 0) return false;
    std::uint64_t buffer[1 + 8];  // nr + up to 8 members
    const ssize_t got = ::read(leader_, buffer, sizeof(buffer));
    if (got < static_cast<ssize_t>(sizeof(std::uint64_t))) return false;
    const std::uint64_t members = buffer[0];
    if (members > capacity || members > 8) return false;
    for (std::uint64_t i = 0; i < members; ++i) values[i] = buffer[1 + i];
    return true;
  }

  bool open() const noexcept { return leader_ >= 0; }

 private:
  int leader_ = -1;
  std::vector<int> fds_;
};

}  // namespace detail

#endif  // QCLAB_OBS_PERF_LINUX

/// Probes perf_event_open once and caches what this host can deliver.
inline const PerfCapability& perfCapability() {
  static const PerfCapability capability = [] {
    PerfCapability cap;
    if constexpr (!kEnabled) {
      cap.reason = "observability disabled (QCLAB_OBS_DISABLED)";
    } else {
#ifdef QCLAB_OBS_PERF_LINUX
      const auto failure = [](const char* event) {
        return std::string("perf_event_open(") + event +
               ") failed: " + std::strerror(errno);
      };
      {
        detail::PerfEventGroup hw;
        const int cycles =
            hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
        if (cycles < 0) {
          cap.reason = failure("cycles");
        } else if (hw.add(PERF_TYPE_HARDWARE,
                          PERF_COUNT_HW_INSTRUCTIONS) < 0) {
          cap.reason = failure("instructions");
        } else {
          cap.hardware = true;
          cap.llc =
              hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES) >=
                  0 &&
              hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES) >= 0;
          cap.stalled = hw.add(PERF_TYPE_HARDWARE,
                               PERF_COUNT_HW_STALLED_CYCLES_BACKEND) >= 0;
        }
      }
      {
        detail::PerfEventGroup sw;
        cap.software =
            sw.add(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK) >= 0 &&
            sw.add(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS) >= 0;
        if (!cap.software && cap.reason.empty()) {
          cap.reason = failure("task-clock");
        }
      }
#else
      cap.reason = "perf_event_open is only available on Linux";
#endif
    }
    return cap;
  }();
  return capability;
}

#ifdef QCLAB_OBS_PERF_LINUX

namespace detail {

/// The perf fds of one thread, laid out per the process-wide capability so
/// every thread shares the same slot mapping.  Counters run free; scopes
/// take start/end reads and record the deltas.
struct ThreadPerfEvents {
  PerfEventGroup hw;
  PerfEventGroup sw;
  int slotLlcReferences = -1;
  int slotLlcMisses = -1;
  int slotStalled = -1;
  bool hwOk = false;
  bool swOk = false;

  ThreadPerfEvents() {
    const PerfCapability& cap = perfCapability();
    if (cap.hardware) {
      hwOk = hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES) == 0 &&
             hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS) == 1;
      if (hwOk && cap.llc) {
        slotLlcReferences =
            hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES);
        slotLlcMisses =
            hw.add(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
      }
      if (hwOk && cap.stalled) {
        slotStalled = hw.add(PERF_TYPE_HARDWARE,
                             PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
      }
    }
    if (cap.software) {
      swOk = sw.add(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK) == 0 &&
             sw.add(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS) == 1;
    }
  }

  bool usable() const noexcept { return hwOk || swOk; }

  /// Fills `out` with the running counter totals of this thread.
  bool sample(PerfCounts& out) const {
    bool any = false;
    if (hwOk) {
      std::uint64_t values[8] = {};
      if (hw.read(values, 8)) {
        out.cycles = values[0];
        out.instructions = values[1];
        if (slotLlcReferences >= 0) {
          out.llcReferences =
              values[static_cast<std::size_t>(slotLlcReferences)];
        }
        if (slotLlcMisses >= 0) {
          out.llcMisses = values[static_cast<std::size_t>(slotLlcMisses)];
        }
        if (slotStalled >= 0) {
          out.stalledCycles = values[static_cast<std::size_t>(slotStalled)];
        }
        any = true;
      }
    }
    if (swOk) {
      std::uint64_t values[2] = {};
      if (sw.read(values, 2)) {
        out.taskClockNs = values[0];  // task-clock reads in nanoseconds
        out.pageFaults = values[1];
        any = true;
      }
    }
    return any;
  }
};

inline ThreadPerfEvents& threadPerfEvents() {
  thread_local ThreadPerfEvents events;
  return events;
}

}  // namespace detail

#endif  // QCLAB_OBS_PERF_LINUX

/// Process-wide per-path accumulation of PerfScope deltas.  Recording is
/// relaxed atomic adds; enable() gates sampling (off by default).
class PerfRegistry {
 public:
  /// Turns scope sampling on/off.  Off (the default) makes scopes ~free.
  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return kEnabled && enabled_.load(std::memory_order_relaxed);
  }

  /// Adds one scope's counter deltas to `path` (`samples` counts one).
  void record(sim::KernelPath path, PerfCounts delta) noexcept {
    if constexpr (kEnabled) {
      delta.samples = 1;
      auto& cells = cells_[static_cast<std::size_t>(path)];
      for (std::size_t f = 0; f < std::size(kPerfFields); ++f) {
        cells[f].fetch_add(delta.*kPerfFields[f], std::memory_order_relaxed);
      }
    }
  }

  /// Accumulated totals of `path`.
  PerfCounts counts(sim::KernelPath path) const noexcept {
    const auto& cells = cells_[static_cast<std::size_t>(path)];
    PerfCounts out;
    for (std::size_t f = 0; f < std::size(kPerfFields); ++f) {
      out.*kPerfFields[f] = cells[f].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Sum over every path.
  PerfCounts total() const noexcept {
    PerfCounts sum;
    for (int p = 0; p < sim::kKernelPathCount; ++p) {
      const PerfCounts c = counts(static_cast<sim::KernelPath>(p));
      for (const auto field : kPerfFields) sum.*field += c.*field;
    }
    return sum;
  }

  /// Zeroes every accumulator (the enable gate is left as-is).
  void reset() noexcept {
    for (auto& cells : cells_) {
      for (auto& cell : cells) cell.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> cells_[sim::kKernelPathCount]
                                   [std::size(kPerfFields)] = {};
};

/// The process-wide perf registry.
inline PerfRegistry& perfRegistry() {
  static PerfRegistry instance;
  return instance;
}

/// RAII counter scope: samples the thread's perf group at construction and
/// destruction and records the deltas against a kernel path.  Inactive
/// (one relaxed load) unless perfRegistry().enable() was called and the
/// host delivers at least one counter group.
class PerfScope {
 public:
  explicit PerfScope(sim::KernelPath path) noexcept : path_(path) {
#ifdef QCLAB_OBS_PERF_LINUX
    if constexpr (kEnabled) {
      active_ = perfRegistry().enabled() &&
                detail::threadPerfEvents().sample(start_);
    }
#endif
  }

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

  ~PerfScope() {
#ifdef QCLAB_OBS_PERF_LINUX
    if constexpr (kEnabled) {
      PerfCounts end;
      if (!active_ || !detail::threadPerfEvents().sample(end)) return;
      for (const auto field : kPerfFields) end.*field -= start_.*field;
      perfRegistry().record(path_, end);
    }
#endif
  }

 private:
  sim::KernelPath path_;
  PerfCounts start_;
  bool active_ = false;
};

}  // namespace qclab::obs
