#pragma once

/// \file roofline.hpp
/// \brief Roofline attribution: measured peak bandwidth vs. achieved rates.
///
/// The roofline model places every kernel path on a bandwidth/compute
/// plane: a path streaming near the machine's peak memory bandwidth is
/// memory-bound (faster math cannot help; blocking and fusion can), one
/// far below peak with a high IPC is compute-bound.  The peak is measured
/// once per process by a STREAM-style triad sweep (a[i] = b[i] + s*c[i])
/// over a working set far larger than the last-level cache; achieved GB/s
/// per path comes from the obs v2 bytes-touched estimates divided by the
/// summed histogram time, and the classification folds in the perf-counter
/// LLC miss rate / IPC when the host PMU delivers them.
///
/// Calibration is lazy (first rooflineCalibration() call, ~20-50 ms) and
/// overridable: QCLAB_OBS_PEAK_GBPS pins the peak without measuring,
/// QCLAB_OBS_NO_ROOFLINE skips calibration entirely.  QCLAB_OBS_DISABLED
/// builds never measure and render an explicit unavailable marker.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "qclab/obs/enabled.hpp"
#include "qclab/obs/perfcounters.hpp"
#include "qclab/sim/kernel_path.hpp"

namespace qclab::obs {

/// Result of the one-shot peak-bandwidth calibration.
struct RooflineCalibration {
  bool measured = false;      ///< peakGBps holds a usable value
  double peakGBps = 0.0;      ///< best triad bandwidth (decimal GB/s)
  double calibrationMs = 0.0; ///< wall time spent calibrating
  std::uint64_t bufferBytes = 0;  ///< triad working-set size
  std::string source;         ///< "stream-triad", "env:...", or skip reason
};

/// Representative floating-point operations per amplitude touched by a
/// kernel path (complex mult = 6 flops, complex add = 2 flops).  SWAP
/// moves data without arithmetic; diagonal paths pay one complex multiply
/// per amplitude; dense single-qubit rows cost 2 mults + 1 add per output
/// amplitude; dense k-qubit blocks are tabulated at the common k=2 shape.
inline double flopsPerAmp(sim::KernelPath path) noexcept {
  switch (path) {
    case sim::KernelPath::kSwap:
      return 0.0;
    case sim::KernelPath::kDiagonal1:
    case sim::KernelPath::kControlledDiagonal1:
    case sim::KernelPath::kDiagonalK:
    case sim::KernelPath::kFusedDiagonalK:
    case sim::KernelPath::kSimdDiagonal1:
      return 6.0;
    case sim::KernelPath::kDense1:
    case sim::KernelPath::kControlled1:
    case sim::KernelPath::kSimdDense1:
    case sim::KernelPath::kTrajectory:
      return 14.0;
    case sim::KernelPath::kDenseK:
    case sim::KernelPath::kFusedDenseK:
    case sim::KernelPath::kSimdDenseK:
    case sim::KernelPath::kBlocked:
      return 30.0;
    case sim::KernelPath::kSparseKron:
      return 8.0;
    default:
      return 14.0;
  }
}

/// Bytes the bytes-touched estimator attributes per touched amplitude on a
/// path (mirrors bytesTouchedEstimate: full-state paths stream read +
/// write, SWAP counts the moved half once, sparse pays a build pass).
inline double bytesPerAmp(sim::KernelPath path) noexcept {
  switch (path) {
    case sim::KernelPath::kSwap:
      return 16.0;
    case sim::KernelPath::kSparseKron:
      return 64.0;
    default:
      return 32.0;
  }
}

/// Measures (once per process) the peak streaming bandwidth with a
/// STREAM-style triad, or adopts the QCLAB_OBS_PEAK_GBPS override.
inline const RooflineCalibration& rooflineCalibration() {
  static const RooflineCalibration calibration = [] {
    RooflineCalibration cal;
    if constexpr (!kEnabled) {
      cal.source = "observability disabled (QCLAB_OBS_DISABLED)";
      return cal;
    } else {
      if (const char* pinned = std::getenv("QCLAB_OBS_PEAK_GBPS")) {
        const double value = std::atof(pinned);
        if (value > 0.0) {
          cal.measured = true;
          cal.peakGBps = value;
          cal.source = "env:QCLAB_OBS_PEAK_GBPS";
          return cal;
        }
      }
      if (std::getenv("QCLAB_OBS_NO_ROOFLINE") != nullptr) {
        cal.source = "skipped (QCLAB_OBS_NO_ROOFLINE)";
        return cal;
      }
      // 3 x 16 MiB of doubles: comfortably past any LLC so the triad
      // streams from DRAM, small enough to calibrate in tens of ms.
      constexpr std::int64_t n = std::int64_t{1} << 21;
      std::vector<double> a(static_cast<std::size_t>(n), 1.0);
      std::vector<double> b(static_cast<std::size_t>(n), 2.0);
      std::vector<double> c(static_cast<std::size_t>(n), 0.5);
      const double scalar = 3.0;
      const auto wallStart = std::chrono::steady_clock::now();
      double best = 0.0;
      for (int iter = 0; iter < 4; ++iter) {  // iter 0 warms pages + caches
        const auto sweepStart = std::chrono::steady_clock::now();
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
        for (std::int64_t i = 0; i < n; ++i) {
          a[static_cast<std::size_t>(i)] =
              b[static_cast<std::size_t>(i)] +
              scalar * c[static_cast<std::size_t>(i)];
        }
        const double sweepNs = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - sweepStart)
                .count());
        if (iter == 0 || sweepNs <= 0.0) continue;
        // Triad traffic: read b, read c, write a = 24 bytes per element.
        const double gbps = 24.0 * static_cast<double>(n) / sweepNs;
        if (gbps > best) best = gbps;
      }
      volatile double sink = a[0];  // keep the triad observable
      (void)sink;
      cal.measured = best > 0.0;
      cal.peakGBps = best;
      cal.bufferBytes = 3 * static_cast<std::uint64_t>(n) * sizeof(double);
      cal.calibrationMs =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - wallStart)
                  .count()) /
          1e3;
      cal.source = "stream-triad";
      return cal;
    }
  }();
  return calibration;
}

/// One kernel path placed on the roofline plane.
struct RooflinePoint {
  double achievedGBps = 0.0;           ///< bytes touched / timed ns
  double fractionOfPeak = 0.0;         ///< achieved / calibrated peak
  double estGflops = 0.0;              ///< estimated arithmetic rate
  double intensityFlopsPerByte = 0.0;  ///< estimated flops per byte moved
  std::string classification;          ///< memory-/compute-bound verdict
};

/// Boundedness verdict for a path: streaming at >= 50% of peak is
/// memory-bound outright; below that the PMU decides (LLC miss rate, then
/// IPC); with no PMU the bandwidth fraction alone decides, and a path with
/// no data is indeterminate.
inline std::string classifyBoundedness(double fractionOfPeak,
                                       const PerfCounts& perf) {
  if (fractionOfPeak >= 0.5) return "memory-bound";
  if (!perf.empty() && perf.llcReferences > 0) {
    return perf.llcMissRate() > 0.20 ? "memory-bound" : "compute-bound";
  }
  if (!perf.empty() && perf.cycles > 0) {
    return perf.ipc() < 1.0 ? "memory-bound" : "compute-bound";
  }
  if (fractionOfPeak > 0.0) {
    return fractionOfPeak >= 0.25 ? "memory-bound" : "compute-bound";
  }
  return "indeterminate";
}

/// Places a path on the roofline from its accumulated bytes-touched
/// estimate, summed timed nanoseconds, and perf-counter totals.
inline RooflinePoint rooflinePoint(sim::KernelPath path, std::uint64_t bytes,
                                   std::uint64_t ns,
                                   const PerfCounts& perf) {
  RooflinePoint point;
  if (bytes == 0 || ns == 0) {
    point.classification = "idle";
    return point;
  }
  point.achievedGBps =
      static_cast<double>(bytes) / static_cast<double>(ns);
  point.intensityFlopsPerByte = flopsPerAmp(path) / bytesPerAmp(path);
  point.estGflops = point.achievedGBps * point.intensityFlopsPerByte;
  const RooflineCalibration& cal = rooflineCalibration();
  if (cal.measured && cal.peakGBps > 0.0) {
    point.fractionOfPeak = point.achievedGBps / cal.peakGBps;
  }
  point.classification = classifyBoundedness(point.fractionOfPeak, perf);
  return point;
}

}  // namespace qclab::obs
