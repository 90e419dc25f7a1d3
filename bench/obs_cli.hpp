#pragma once

/// \file obs_cli.hpp
/// \brief Tiny shared helpers for the bench binaries: the common
/// `--obs-json <path>` flag (export the run's obs::Report as one JSON
/// object), the rejection of unknown arguments, crash-handler
/// installation, and a self-calibrating wall-clock timer.  Kept free of
/// google-benchmark so the hand-rolled JSON benches can use it too.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "qclab/obs/obs.hpp"
#include "qclab/obs/report.hpp"

namespace qclab::benchutil {

/// Extracts and strips `--obs-json <path>` (or `--obs-json=<path>`) from
/// argv, returning the path ("" if absent) and compacting argv/argc so the
/// remaining arguments can be handed to another parser.
inline std::string extractObsJsonPath(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs-json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(argv[i], "--obs-json=", 11) == 0) {
      path = argv[i] + 11;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// Ends the process with exit code 2 and a usage line on stderr when
/// argv still holds an argument after a binary has read its known flags
/// (argv[1..argc) is what is left), so a misspelled or unsupported flag
/// never runs the bench and silently writes nothing.
inline void rejectUnknownArguments(int argc, char** argv,
                                   const char* usage = "[--obs-json <path>]") {
  if (argc <= 1) return;
  std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s %s\n", argv[0],
               argv[1], argv[0], usage);
  std::exit(2);
}

/// Shared head of the bench/repro binaries: installs the signal-safe
/// crash handlers (a dying bench leaves a qclab-crash-<pid>.json behind)
/// and zeroes every obs registry so the exported report covers exactly
/// this run.
inline void initObsRun() {
  obs::installCrashHandlers();
  obs::resetAll();
}

/// Wall-clock nanoseconds since construction — the whole-run timing the
/// repro binaries report as their gated trajectory result.
class WallTimer {
 public:
  double elapsedNs() const {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - begin_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point begin_ =
      std::chrono::steady_clock::now();
};

/// Shared tail of the repro binaries: exports the run's obs::Report
/// (whole-run wall clock attached as "total/run") when `--obs-json <path>`
/// was given.  Returns the process exit code.
inline int writeReproReport(const std::string& obsJsonPath,
                            const char* reproName, const WallTimer& timer) {
  if (obsJsonPath.empty()) return 0;
  obs::Report report(reproName);
  report.add("total/run", timer.elapsedNs(), "ns");
  if (!report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}

/// Average wall-clock nanoseconds per call of `f`, self-calibrating the
/// repetition count until one timed block spans at least `minTimeNs`
/// (default 20ms) so short kernels are measured above timer granularity.
template <typename F>
double timeNsPerOp(F&& f, double minTimeNs = 2e7) {
  using clock = std::chrono::steady_clock;
  f();  // warmup (page in the state, warm the caches)
  long reps = 1;
  for (;;) {
    const auto begin = clock::now();
    for (long r = 0; r < reps; ++r) f();
    const double elapsedNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             begin)
            .count());
    if (elapsedNs >= minTimeNs || reps >= (1L << 28)) {
      return elapsedNs / static_cast<double>(reps);
    }
    // Aim straight for the target block size instead of a fixed ramp.
    const double scale =
        elapsedNs > 0 ? minTimeNs / elapsedNs * 1.2 : 4.0;
    reps = scale > 4.0 ? static_cast<long>(static_cast<double>(reps) * scale)
                       : reps * 4;
  }
}

}  // namespace qclab::benchutil
