#pragma once

/// \file histogram.hpp
/// \brief Lock-free log2-bucketed latency histograms keyed by kernel path.
///
/// A LatencyHistogram spreads nanosecond samples over power-of-two buckets
/// (bucket 0 holds exact zeros, bucket b >= 1 holds [2^(b-1), 2^b - 1]);
/// recording is three relaxed atomic increments, so the hot path stays
/// mutex-free even with many threads timing concurrently.  Snapshots carry
/// the bucket array plus count/sum and estimate percentiles (p50/p90/p99)
/// by linear interpolation inside the selected bucket.
///
/// PathHistograms holds one histogram per sim::KernelPath; the process-wide
/// instance (latencyHistograms()) is fed by the RAII PathTimer from
/// InstrumentedBackend and the fusion sweep paths, and rendered into
/// reports next to the per-path counters.  Under QCLAB_OBS_DISABLED the
/// recording bodies are discarded and every histogram stays empty.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/perfcounters.hpp"
#include "qclab/sim/kernel_path.hpp"

namespace qclab::obs {

/// Number of log2 buckets: zeros + one bucket per uint64 bit width.
inline constexpr int kLatencyBuckets = 65;

/// Immutable copy of a histogram's state with percentile estimation.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< kLatencyBuckets counts
  std::uint64_t count = 0;             ///< total recorded samples
  std::uint64_t sumNs = 0;             ///< sum of recorded nanoseconds

  bool empty() const noexcept { return count == 0; }

  /// Mean sample in nanoseconds (0 when empty).
  double meanNs() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sumNs) / static_cast<double>(count);
  }

  /// Estimated `q`-quantile (q in [0, 1]) in nanoseconds: walks the
  /// cumulative bucket counts to the bucket containing the target rank and
  /// interpolates linearly between the bucket's bounds.
  double percentileNs(double q) const noexcept {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double targetRank = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (int b = 0; b < static_cast<int>(buckets.size()); ++b) {
      const std::uint64_t inBucket = buckets[static_cast<std::size_t>(b)];
      if (inBucket == 0) continue;
      if (static_cast<double>(cumulative + inBucket) >= targetRank) {
        const double lo = bucketLowNs(b);
        const double hi = bucketHighNs(b);
        const double within =
            (targetRank - static_cast<double>(cumulative)) /
            static_cast<double>(inBucket);
        return lo + (hi - lo) * (within < 0.0 ? 0.0 : within);
      }
      cumulative += inBucket;
    }
    return bucketHighNs(kLatencyBuckets - 1);
  }

  /// Inclusive lower bound of bucket `b` in nanoseconds.
  static double bucketLowNs(int b) noexcept {
    if (b <= 0) return 0.0;
    return static_cast<double>(std::uint64_t{1} << (b - 1));
  }

  /// Inclusive upper bound of bucket `b` in nanoseconds.
  static double bucketHighNs(int b) noexcept {
    if (b <= 0) return 0.0;
    if (b >= 64) return 1.8446744073709552e19;  // ~2^64
    return static_cast<double>((std::uint64_t{1} << b) - 1);
  }
};

/// Index of the bucket holding a `ns` sample: 0 for zero, otherwise the
/// bit width of the value (1 -> 1, 2..3 -> 2, 4..7 -> 3, ...).
inline int latencyBucketOf(std::uint64_t ns) noexcept {
  return std::bit_width(ns);  // bit_width(0) == 0
}

/// Lock-free log2-bucketed nanosecond histogram.
class LatencyHistogram {
 public:
  /// Records one sample.  Three relaxed atomic adds; safe from any thread.
  void record(std::uint64_t ns) noexcept {
    if constexpr (kEnabled) {
      buckets_[static_cast<std::size_t>(latencyBucketOf(ns))].fetch_add(
          1, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      sumNs_.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  /// Total recorded samples.
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of recorded nanoseconds.
  std::uint64_t sumNs() const noexcept {
    return sumNs_.load(std::memory_order_relaxed);
  }

  /// Zeroes the histogram.
  void reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumNs_.store(0, std::memory_order_relaxed);
  }

  /// Consistent-enough copy for reporting (relaxed loads; concurrent
  /// recording may skew count vs buckets by in-flight samples).
  HistogramSnapshot snapshot() const {
    HistogramSnapshot snap;
    snap.buckets.resize(kLatencyBuckets);
    for (int b = 0; b < kLatencyBuckets; ++b) {
      snap.buckets[static_cast<std::size_t>(b)] =
          buckets_[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sumNs = sumNs_.load(std::memory_order_relaxed);
    return snap;
  }

 private:
  std::atomic<std::uint64_t> buckets_[kLatencyBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sumNs_{0};
};

/// One latency histogram per kernel path.
class PathHistograms {
 public:
  /// Records an `ns` sample against `path`.
  void record(sim::KernelPath path, std::uint64_t ns) noexcept {
    paths_[static_cast<std::size_t>(path)].record(ns);
  }

  /// The histogram of `path`.
  const LatencyHistogram& histogram(sim::KernelPath path) const noexcept {
    return paths_[static_cast<std::size_t>(path)];
  }

  /// Zeroes every path histogram.
  void reset() noexcept {
    for (auto& histogram : paths_) histogram.reset();
  }

 private:
  LatencyHistogram paths_[sim::kKernelPathCount];
};

/// The process-wide per-path latency histograms.
inline PathHistograms& latencyHistograms() {
  static PathHistograms instance;
  return instance;
}

namespace detail {

/// Kernel path currently being timed on this thread (-1 = none).
/// Maintained by PathTimer (save/restore, so nested timers unwind
/// correctly) and read by the SIGPROF sampling profiler to attribute
/// samples to kernel paths.  Constant-initialized thread_local: safe to
/// read from a signal handler interrupting this thread.
inline std::atomic<int>& currentTimedPath() noexcept {
  thread_local std::atomic<int> path{-1};
  return path;
}

}  // namespace detail

/// RAII timer: records [construction, destruction) in nanoseconds into the
/// process-wide histogram of a kernel path, and — when the perf registry
/// is enabled — samples hardware counters over the same scope so each
/// path's latency comes with its IPC and LLC miss rate (perfcounters.hpp).
class PathTimer {
 public:
  explicit PathTimer(sim::KernelPath path) noexcept
      : perf_(path), path_(path) {
    if constexpr (kEnabled) {
      auto& current = detail::currentTimedPath();
      previousPath_ = current.load(std::memory_order_relaxed);
      current.store(static_cast<int>(path), std::memory_order_relaxed);
      start_ = std::chrono::steady_clock::now();
    }
  }

  PathTimer(const PathTimer&) = delete;
  PathTimer& operator=(const PathTimer&) = delete;

  ~PathTimer() {
    if constexpr (kEnabled) {
      detail::currentTimedPath().store(previousPath_,
                                       std::memory_order_relaxed);
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      latencyHistograms().record(
          path_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()));
    }
  }

 private:
  PerfScope perf_;  // destroyed after the histogram record; scope covers
                    // at least the timed region
  sim::KernelPath path_;
  int previousPath_ = -1;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace qclab::obs
