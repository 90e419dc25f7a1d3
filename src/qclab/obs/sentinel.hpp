#pragma once

/// \file sentinel.hpp
/// \brief Numerical-health sentinels: throttled norm-drift / NaN / Inf
/// checks over the state vector.
///
/// Simulator bugs rarely crash at the offending gate — they surface many
/// gates later as NaN amplitudes or a drifting norm.  The sentinels make
/// that failure mode observable while cheap enough to leave on:
///
///  - CHECKS are full passes over a state (or per-chunk partial passes in
///    the cache-blocked executor, accumulated while the chunk is hot)
///    computing sum|amp|^2, max|amp|^2, and a NaN/Inf flag in double.
///    Checks are strictly read-only, so enabling them NEVER changes a
///    single amplitude bit — differential tests memcmp-verify this.
///  - THROTTLING: each check site first asks shouldCheck(), which passes
///    every `interval`-th opportunity per thread (default 8), bounding the
///    steady-state cost at a small fraction of one gate sweep.
///  - POLICY (off / log / throw) comes from QCLAB_OBS_SENTINEL at process
///    start (mirroring the other QCLAB_OBS_* knobs) or configure() at
///    runtime.  kLog prints one stderr line per violation.  kThrow NEVER
///    throws at the detection site — checks run inside OpenMP regions
///    where an escaping exception would std::terminate — it latches a
///    sticky violation that throwIfPending() raises at the next safe
///    point (end of QCircuit::simulate, end of BatchedSimulation::forEach)
///    on a thread that is outside any parallel region.
///
/// Every check records into counters (checks / nan / norm alerts), gauges
/// (last norm, running max amplitude), and a latency histogram of the
/// check passes themselves; reports render these as the v4 "sentinel"
/// section and the OpenMetrics exporter as qclab_sentinel_* families.
/// Violations also drop a kSentinelAlert event into the flight recorder so
/// crash dumps show *when* the state went bad relative to the event
/// stream.  Under QCLAB_OBS_DISABLED the policy is pinned off and every
/// check body is discarded.

#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/flightrecorder.hpp"
#include "qclab/obs/histogram.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::obs {

/// What the sentinels do when a check fails.
enum class SentinelPolicy : int {
  kOff = 0,  ///< no checks at all (shouldCheck() always false)
  kLog,      ///< count + flight event + one stderr line per violation
  kThrow,    ///< count + flight event + deferred NumericalHealthError
};

inline const char* sentinelPolicyName(SentinelPolicy policy) noexcept {
  switch (policy) {
    case SentinelPolicy::kOff:   return "off";
    case SentinelPolicy::kLog:   return "log";
    case SentinelPolicy::kThrow: return "throw";
  }
  return "unknown";
}

/// Raised by Sentinel::throwIfPending() under SentinelPolicy::kThrow.
class NumericalHealthError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tuning of the sentinel checks.
struct SentinelConfig {
  SentinelPolicy policy = SentinelPolicy::kLog;
  /// Pass every Nth check opportunity per thread (>= 1).
  std::uint32_t interval = 8;
  /// Allowed |sum|amp|^2 - 1| before a norm-drift alert.
  double normTolerance = 1e-4;
};

/// The process-wide sentinel registry: configuration, counters, and the
/// sticky deferred violation.
class Sentinel {
 public:
  Sentinel() {
    if constexpr (kEnabled) {
      if (const char* env = std::getenv("QCLAB_OBS_SENTINEL")) {
        if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
          policy_.store(static_cast<int>(SentinelPolicy::kOff),
                        std::memory_order_relaxed);
        } else if (std::strcmp(env, "log") == 0) {
          policy_.store(static_cast<int>(SentinelPolicy::kLog),
                        std::memory_order_relaxed);
        } else if (std::strcmp(env, "throw") == 0) {
          policy_.store(static_cast<int>(SentinelPolicy::kThrow),
                        std::memory_order_relaxed);
        }
      }
    }
  }

  SentinelPolicy policy() const noexcept {
    return static_cast<SentinelPolicy>(
        policy_.load(std::memory_order_relaxed));
  }

  SentinelConfig config() const noexcept {
    SentinelConfig cfg;
    cfg.policy = policy();
    cfg.interval = interval_.load(std::memory_order_relaxed);
    cfg.normTolerance = loadDouble(normToleranceBits_);
    return cfg;
  }

  /// Replaces the configuration (tests, benches, service knobs).
  void configure(const SentinelConfig& cfg) noexcept {
    if constexpr (kEnabled) {
      policy_.store(static_cast<int>(cfg.policy), std::memory_order_relaxed);
      interval_.store(cfg.interval == 0 ? 1 : cfg.interval,
                      std::memory_order_relaxed);
      storeDouble(normToleranceBits_, cfg.normTolerance);
    }
  }

  /// Throttle gate of every check site: true on every `interval`-th call
  /// per thread (and never under kOff).  Cost: one TLS increment.
  bool shouldCheck() noexcept {
    if constexpr (kEnabled) {
      if (policy() == SentinelPolicy::kOff) return false;
      thread_local std::uint64_t opportunities = 0;
      return (opportunities++ %
              interval_.load(std::memory_order_relaxed)) == 0;
    }
    return false;
  }

  /// Feeds one completed check: `normSq` = sum|amp|^2 (double), `maxAmpSq`
  /// = max|amp|^2, `nanSeen` = any non-finite component, `site` = static
  /// string naming the hook ("simulate", "blocked", "batch"), `checkNs` =
  /// cost of the pass.  Applies the policy; never throws (kThrow defers).
  void report(double normSq, double maxAmpSq, bool nanSeen, const char* site,
              std::uint64_t checkNs) noexcept {
    if constexpr (kEnabled) {
      checks_.fetch_add(1, std::memory_order_relaxed);
      checkHistogram_.record(checkNs);
      storeDouble(lastNormSqBits_, normSq);
      storeDoubleMax(maxAmpSqBits_, maxAmpSq);
      const bool nanBad = nanSeen || !std::isfinite(normSq);
      const bool normBad =
          !nanBad && std::abs(normSq - 1.0) > loadDouble(normToleranceBits_);
      if (!nanBad && !normBad) return;
      if (nanBad) nanDetected_.fetch_add(1, std::memory_order_relaxed);
      if (normBad) normAlerts_.fetch_add(1, std::memory_order_relaxed);
      flightRecorder().record(FlightEventKind::kSentinelAlert, 0, 0,
                              nanBad ? 1u : 2u);
      switch (policy()) {
        case SentinelPolicy::kOff:
          break;
        case SentinelPolicy::kLog:
          std::fprintf(stderr,
                       "qclab-sentinel: %s at %s: normSq=%.17g maxAmpSq=%.17g"
                       " (check #%llu)\n",
                       nanBad ? "non-finite amplitude" : "norm drift", site,
                       normSq, maxAmpSq,
                       static_cast<unsigned long long>(
                           checks_.load(std::memory_order_relaxed)));
          break;
        case SentinelPolicy::kThrow: {
          const std::lock_guard<std::mutex> lock(violationMutex_);
          if (!violationPending_.load(std::memory_order_relaxed)) {
            violationMessage_ =
                std::string("qclab-sentinel: ") +
                (nanBad ? "non-finite amplitude" : "norm drift") + " at " +
                site + ": normSq=" + std::to_string(normSq);
            violationPending_.store(true, std::memory_order_release);
          }
          break;
        }
      }
    }
  }

  /// True when a kThrow violation awaits its safe point.
  bool violationPending() const noexcept {
    return violationPending_.load(std::memory_order_acquire);
  }

  /// Message of the pending (or last thrown) violation.
  std::string violationMessage() const {
    const std::lock_guard<std::mutex> lock(violationMutex_);
    return violationMessage_;
  }

  /// Safe-point raise: throws NumericalHealthError when a violation is
  /// pending AND this thread is outside any OpenMP parallel region (an
  /// exception escaping a parallel region would std::terminate, so nested
  /// callers stay silent and the orchestrating thread throws).  Clears
  /// the pending flag on throw.
  void throwIfPending() {
    if constexpr (kEnabled) {
      if (!violationPending()) return;
#ifdef QCLAB_HAS_OPENMP
      if (omp_in_parallel()) return;
#endif
      std::string message;
      {
        const std::lock_guard<std::mutex> lock(violationMutex_);
        message = violationMessage_;
        violationPending_.store(false, std::memory_order_release);
      }
      throw NumericalHealthError(message);
    }
  }

  // ---- readers --------------------------------------------------------

  std::uint64_t checks() const noexcept {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t nanDetected() const noexcept {
    return nanDetected_.load(std::memory_order_relaxed);
  }
  std::uint64_t normAlerts() const noexcept {
    return normAlerts_.load(std::memory_order_relaxed);
  }
  std::uint64_t violations() const noexcept {
    return nanDetected() + normAlerts();
  }
  /// sum|amp|^2 of the most recent check (0 before any check).
  double lastNormSq() const noexcept { return loadDouble(lastNormSqBits_); }
  /// Largest |amp|^2 seen by any check since the last reset.
  double maxAmpSq() const noexcept { return loadDouble(maxAmpSqBits_); }
  /// Latency histogram of the check passes.
  const LatencyHistogram& checkHistogram() const noexcept {
    return checkHistogram_;
  }

  /// Zeroes counters, gauges, the histogram, and the pending violation
  /// (configuration is kept).
  void reset() noexcept {
    checks_.store(0, std::memory_order_relaxed);
    nanDetected_.store(0, std::memory_order_relaxed);
    normAlerts_.store(0, std::memory_order_relaxed);
    storeDouble(lastNormSqBits_, 0.0);
    storeDouble(maxAmpSqBits_, 0.0);
    checkHistogram_.reset();
    const std::lock_guard<std::mutex> lock(violationMutex_);
    violationMessage_.clear();
    violationPending_.store(false, std::memory_order_relaxed);
  }

 private:
  static double loadDouble(const std::atomic<std::uint64_t>& bits) noexcept {
    double value;
    const std::uint64_t raw = bits.load(std::memory_order_relaxed);
    std::memcpy(&value, &raw, sizeof(value));
    return value;
  }

  static void storeDouble(std::atomic<std::uint64_t>& bits,
                          double value) noexcept {
    std::uint64_t raw;
    std::memcpy(&raw, &value, sizeof(raw));
    bits.store(raw, std::memory_order_relaxed);
  }

  /// Monotonic max over the bit-stored double (NaN never replaces a max).
  static void storeDoubleMax(std::atomic<std::uint64_t>& bits,
                             double value) noexcept {
    if (!(value == value)) return;  // NaN
    std::uint64_t expected = bits.load(std::memory_order_relaxed);
    for (;;) {
      double current;
      std::memcpy(&current, &expected, sizeof(current));
      if (value <= current) return;
      std::uint64_t raw;
      std::memcpy(&raw, &value, sizeof(raw));
      if (bits.compare_exchange_weak(expected, raw,
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  }

  static std::uint64_t doubleBits(double value) noexcept {
    std::uint64_t raw;
    std::memcpy(&raw, &value, sizeof(raw));
    return raw;
  }

  std::atomic<int> policy_{
      static_cast<int>(kEnabled ? SentinelPolicy::kLog : SentinelPolicy::kOff)};
  std::atomic<std::uint32_t> interval_{8};
  std::atomic<std::uint64_t> normToleranceBits_{doubleBits(1e-4)};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> nanDetected_{0};
  std::atomic<std::uint64_t> normAlerts_{0};
  std::atomic<std::uint64_t> lastNormSqBits_{0};
  std::atomic<std::uint64_t> maxAmpSqBits_{0};
  LatencyHistogram checkHistogram_;
  std::atomic<bool> violationPending_{false};
  mutable std::mutex violationMutex_;
  std::string violationMessage_;
};

/// The process-wide sentinel.
inline Sentinel& sentinel() {
  static Sentinel instance;
  return instance;
}

/// Partial accumulation over one cache-hot chunk (the blocked executor
/// merges these per run before reporting).
template <typename T>
void sentinelAccumulateChunk(const std::complex<T>* chunk, std::size_t dim,
                             double& normSq, double& maxAmpSq,
                             bool& nanSeen) noexcept {
  if constexpr (kEnabled) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double re = static_cast<double>(chunk[i].real());
      const double im = static_cast<double>(chunk[i].imag());
      const double ampSq = re * re + im * im;
      normSq += ampSq;
      if (ampSq > maxAmpSq) maxAmpSq = ampSq;
      // NaN fails every comparison, so track it explicitly.
      if (!std::isfinite(ampSq)) nanSeen = true;
    }
  }
}

/// One full read-only health pass over `dim` amplitudes: accumulates
/// sum|amp|^2 and max|amp|^2 in double, flags non-finite components, and
/// reports the result (policy applied by Sentinel::report — never throws
/// here).  Callers gate on sentinel().shouldCheck().
template <typename T>
void sentinelCheckState(const std::complex<T>* data, std::size_t dim,
                        const char* site) {
  if constexpr (kEnabled) {
    const auto begin = std::chrono::steady_clock::now();
    double normSq = 0.0;
    double maxAmpSq = 0.0;
    bool nanSeen = false;
    sentinelAccumulateChunk(data, dim, normSq, maxAmpSq, nanSeen);
    const std::uint64_t checkNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin)
            .count());
    sentinel().report(normSq, maxAmpSq, nanSeen, site, checkNs);
  }
}

}  // namespace qclab::obs
