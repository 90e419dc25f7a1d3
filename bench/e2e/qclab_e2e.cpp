/// \file qclab_e2e.cpp
/// \brief QASM-to-result benchmark of the qclab library.
///
///   qclab_e2e --workload NAME [--seed N] [--seconds S] [--trace FILE]
///             [--smoke] [--corrupt-for-test]
///   qclab_e2e compare [--benchmark BENCHMARK.json] A.json... -- B.json...
///
/// One closed-loop client: each request is issued only after the previous
/// one returned.  A run sets up (batch compile where the workload has
/// one, plus one untimed warm-up request), then issues requests until
/// --seconds are up or the workload's request count is reached, checks
/// every output, runs the reference checks and prints one JSON result on
/// stdout (a readable summary goes to stderr).  The exit code is 0 only
/// when every check passed.
///
/// Untraced, the result holds the end-to-end metrics.  With --trace every
/// request runs twice, once untraced and once with spans around every
/// library call; the run writes the first 2000 traced requests as a
/// Chrome trace to FILE and reports per-layer metrics, the tracing
/// overhead, and whether the traced outputs are bit-identical to the
/// untraced ones.
///
/// Run it under OMP_NUM_THREADS=2 OMP_PROC_BIND=false and without any
/// QCLAB_* override; it refuses to run otherwise, so every result
/// measures the library defaults with the same thread count.  The threads
/// are left unbound: bound ("close") they always sit on CPUs 0 and 1, and
/// on a VM whose vCPUs share a host with other guests a run then takes
/// the speed of those two vCPUs alone.

#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

#include "compare.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace qclab::e2e;
using Clock = std::chrono::steady_clock;

/// Initialized before main: the earliest point of the process this
/// program observes, taken as the start of set-up.
const Clock::time_point kProcessStart = Clock::now();

/// setup_s is the median set-up time of this process and of fresh
/// set-up-only processes.  An untraced run starts those between requests,
/// spread evenly over the run but taking at most kProbeShare of its time,
/// up to kMaxSetupSamples in all and at least kMinSetupSamples.  Like the
/// request latencies, the samples then see the host at many moments.
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 51;
constexpr double kProbeShare = 0.1;
constexpr std::size_t kTracedRequestsKept = 2000;
constexpr double kMinCoverage = 0.95;
constexpr std::size_t kFailuresKept = 5;
constexpr const char* kOmpSettings[][2] = {{"OMP_NUM_THREADS", "2"},
                                            {"OMP_PROC_BIND", "false"}};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  std::string tracePath;
  bool smoke = false;
  bool corrupt = false;
  bool setupOnly = false;
};

double elapsedSeconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double nanoseconds(Clock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double processCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

std::string environmentProblem() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "QCLAB_", 6) == 0) {
      return std::string(*entry, std::strcspn(*entry, "=")) +
             " is set; unset every QCLAB_* override to measure the "
             "library defaults";
    }
  }
  for (const auto& [name, value] : kOmpSettings) {
    const char* actual = std::getenv(name);
    if (actual == nullptr || std::strcmp(actual, value) != 0) {
      return std::string(name) + " must be " + value;
    }
  }
  return "";
}

/// Size of the level-`level` data/unified cache of CPU 0 from sysfs, in
/// bytes (0 when unknown).
long long cacheBytes(int level) {
  for (int index = 0;; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    std::ifstream levelFile(dir + "level");
    if (!levelFile) return 0;
    int found = 0;
    std::string type;
    std::string size;
    levelFile >> found;
    std::ifstream(dir + "type") >> type;
    std::ifstream(dir + "size") >> size;
    if (found != level || type == "Instruction" || size.empty()) continue;
    long long bytes = std::atoll(size.c_str());
    switch (size.back()) {
      case 'K': bytes <<= 10; break;
      case 'M': bytes <<= 20; break;
      case 'G': bytes <<= 30; break;
      default: break;
    }
    return bytes;
  }
}

/// VmHWM (peak resident set) of this process, in MiB.
double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string quoted(const std::string& text) {
  return "\"" + qclab::obs::jsonEscape(text) + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Outputs of one pass over the requests.
struct Phase {
  std::vector<double> latencyNs;
  std::vector<std::uint64_t> digests;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  RequestCounts counts;
  double cpuNs = 0.0;
};

void recordFailure(std::vector<std::string>& failures, std::string what) {
  if (failures.size() < kFailuresKept) failures.push_back(std::move(what));
}

Phase makePhase(std::size_t maxRequests) {
  Phase phase;
  // Touched up front, so the harness's memory does not grow with the
  // request count and peak_rss_mib measures the library.
  phase.latencyNs.assign(maxRequests, 0.0);
  phase.latencyNs.clear();
  return phase;
}

/// Issues request `id` once, traced when `tracer` is set, and records it
/// in `phase`.  Input generation and output checks happen outside the
/// timed region.
void runRequest(Workload& workload, Tracer* tracer, std::uint64_t id,
                const Options& options, Phase& phase) {
  workload.prepare(id);
  const double cpuStart = tracer != nullptr ? processCpuNs() : 0.0;
  const auto begin = Clock::now();
  std::string failure;
  try {
    if (tracer != nullptr) tracer->beginRequest(id);
    workload.run(tracer);
    if (tracer != nullptr) tracer->endRequest();
  } catch (const std::exception& error) {
    failure = std::string("threw: ") + error.what();
  }
  phase.latencyNs.push_back(nanoseconds(Clock::now() - begin));
  if (failure.empty()) {
    if (tracer != nullptr) {
      phase.cpuNs += processCpuNs() - cpuStart;
      phase.counts += workload.counts();
    }
    if (options.corrupt && id == 0) workload.corrupt();
    failure = workload.check();
    if (!options.tracePath.empty()) phase.digests.push_back(workload.digest());
  }
  if (!failure.empty()) {
    ++phase.failed;
    recordFailure(phase.failures,
                  "request " + std::to_string(id) + ": " + failure);
  }
}

/// Set-up time of a fresh process of this program (--setup-only).
double setupProbe(const Options& options) {
  char exe[4096];
  const ssize_t length = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (length <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  exe[length] = '\0';
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string seed = std::to_string(options.seed);
  std::string workload = options.workload;
  std::string flagWorkload = "--workload", flagSeed = "--seed",
              flagSetup = "--setup-only";
  char* argv[] = {exe,        flagWorkload.data(), workload.data(),
                  flagSeed.data(), seed.data(),    flagSetup.data(),
                  nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  char buffer[256];
  ssize_t got = 0;
  while (spawned == 0 && (got = read(fds[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe process failed");
  }
  return std::strtod(output.c_str(), nullptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::vector<Metric> endToEndMetrics(const Phase& phase,
                                    const std::vector<double>& setupSamples,
                                    double peakRss) {
  const double requests = static_cast<double>(phase.latencyNs.size());
  return {
      {"setup_s", median(setupSamples), "s"},
      {"latency_p50_ms", quantile(phase.latencyNs, 0.50) / 1e6, "ms"},
      {"latency_p90_ms", quantile(phase.latencyNs, 0.90) / 1e6, "ms"},
      {"throughput_rps", requests / (sum(phase.latencyNs) / 1e9), "1/s"},
      {"peak_rss_mib", peakRss, "MiB"},
      {"error_rate", static_cast<double>(phase.failed) / requests, "frac"},
  };
}

std::vector<Metric> perLayerMetrics(const Workload& workload,
                                    const Tracer& tracer, const Phase& traced,
                                    const Phase& untraced,
                                    double setupSeconds) {
  const auto& m = qclab::obs::metrics();
  const double requests = static_cast<double>(traced.latencyNs.size());
  // The library's counters saw every request twice, untraced and traced.
  const double executions = 2 * requests;
  const double requestNs = sum(tracer.requestNs());
  const RequestCounts& c = traced.counts;
  // Each request ran untraced and traced back to back, so their ratio
  // cancels the drift of the host's speed during the run.
  std::vector<double> ratios(traced.latencyNs.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    ratios[i] = traced.latencyNs[i] / untraced.latencyNs[i];
  }
  std::vector<Metric> metrics;
  double selfNs[kLayerCount];
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const std::string name = kLayers[l];
    selfNs[l] = sum(tracer.selfNs(l));
    metrics.push_back({name + "_ms", median(tracer.selfNs(l)) / 1e6, "ms"});
    metrics.push_back({name + "_share", selfNs[l] / requestNs, "frac"});
  }
  // Gates execute in qcircuit.execute or, batched, in sim.batch.run.
  const double batchNs = selfNs[layerIndex("sim.batch.run")];
  const double executeNs = selfNs[layerIndex("qcircuit.execute")] + batchNs;
  const double fusionBlocks = static_cast<double>(m.fusionBlocks());
  const double fusionGates = static_cast<double>(m.fusionGatesIn());
  metrics.insert(
      metrics.end(),
      {
          {"io.qasm_kib", c.qasmBytes / 1024.0 / requests, "KiB"},
          {"sim.state_buffer.peak_state_mib",
           static_cast<double>(m.peakStateBytes()) / (1 << 20), "MiB"},
          {"sim.kernels.gates", c.gates / requests, "count"},
          {"sim.kernels.ns_per_gate", executeNs / c.gates, "ns"},
          {"sim.kernels.computed_gbps", c.computedBytes / executeNs, "GB/s"},
          {"sim.fusion.gates_in", fusionGates / executions, "count"},
          {"sim.fusion.blocks_out", fusionBlocks / executions, "count"},
          {"sim.fusion.sweep_reduction",
           fusionBlocks > 0 ? fusionGates / fusionBlocks : 1.0, "x"},
          {"sim.blocking.blocked_runs",
           static_cast<double>(
               m.gateApplications(qclab::sim::KernelPath::kBlocked)) /
               executions,
           "count"},
          {"sim.batch.compile_ms", workload.compileSeconds() * 1e3, "ms"},
          {"sim.batch.setup_share", workload.compileSeconds() / setupSeconds,
           "frac"},
          {"sim.batch.members_per_s",
           batchNs > 0 ? c.members / (batchNs / 1e9) : 0.0, "1/s"},
          {"measurement.branch_spawns",
           static_cast<double>(m.branchSpawns()) / executions, "count"},
          {"measurement.branch_prunes",
           static_cast<double>(m.branchPrunes()) / executions, "count"},
          {"measurement.final_branches", c.finalBranches / c.simulations,
           "count"},
          {"simulation.outcome_slots", c.outcomeSlots / requests, "count"},
          {"simulation.distinct_outcomes", c.distinctOutcomes / requests,
           "count"},
          {"observable.term_passes", c.termPasses / requests, "count"},
          {"trace.coverage", 1.0 - sum(tracer.selfNs(kLayerCount)) / requestNs,
           "frac"},
          {"trace.overhead_frac", median(ratios) - 1.0, "frac"},
          {"harness.requests", requests, "count"},
          {"harness.request_ms", median(traced.latencyNs) / 1e6, "ms"},
          {"harness.cpu_ms_per_request", traced.cpuNs / 1e6 / requests, "ms"},
      });
  return metrics;
}

std::string headerJson(const Workload& workload) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN);
  for (const auto& setting : kOmpSettings) {
    out << ", " << quoted(setting[0]) << ": " << quoted(std::getenv(setting[0]));
  }
#ifdef QCLAB_HAS_OPENMP
  out << ", \"omp_max_threads\": " << omp_get_max_threads()
      << ", \"omp_proc_bind\": " << static_cast<int>(omp_get_proc_bind());
#endif
  out << ", \"l2_bytes\": " << cacheBytes(2)
      << ", \"l3_bytes\": " << cacheBytes(3) << ", \"state_bytes\": "
      << (std::size_t{1} << workload.stateQubits()) * sizeof(Amplitude)
      << ", \"compiler\": " << quoted(QCLAB_E2E_COMPILER)
      << ", \"build_type\": " << quoted(QCLAB_E2E_BUILD_TYPE)
      << ", \"git_commit\": " << quoted(QCLAB_E2E_GIT_COMMIT)
      << ", \"library\": " << quoted(qclab::buildInfo()) << "}";
  return out.str();
}

int runBenchmark(const Options& options) {
  if (const std::string problem = environmentProblem(); !problem.empty()) {
    std::fprintf(stderr, "qclab_e2e: refusing to run: %s\n", problem.c_str());
    return 2;
  }
  const auto workload = makeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "qclab_e2e: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const bool traced = !options.tracePath.empty();
  std::vector<std::string> failures;

  workload->setup();
  workload->prepare(kWarmupId);
  workload->run(nullptr);
  if (std::string f = workload->check(); !f.empty()) {
    recordFailure(failures, "warm-up request: " + f);
  }
  const double setupSeconds = elapsedSeconds(kProcessStart);
  if (options.setupOnly) {
    std::printf("%s\n", number(setupSeconds).c_str());
    return failures.empty() ? 0 : 1;
  }

  // A smoke run does 1/20 of the requests, with no time limit.  A traced
  // run issues every request twice, untraced and traced, alternating
  // which goes first so that warm caches favour neither.
  const std::size_t maxRequests =
      options.smoke ? workload->nominalRequests() / 20
                    : workload->nominalRequests();
  const double budget = options.smoke ? std::numeric_limits<double>::infinity()
                                      : options.seconds;
  Phase untraced = makePhase(maxRequests);
  Phase tracedPhase = makePhase(traced ? maxRequests : 0);
  Tracer tracer(kTracedRequestsKept);
  std::vector<double> setupSamples = {setupSeconds};
  const double probeInterval = budget / kMaxSetupSamples;
  double probeSeconds = 0.0;
  qclab::obs::metrics().reset();
  const auto start = Clock::now();
  for (std::uint64_t id = 0;
       id < maxRequests && elapsedSeconds(start) < budget; ++id) {
    const double elapsed = elapsedSeconds(start);
    if (!traced && elapsed >= probeInterval * setupSamples.size() &&
        probeSeconds <= kProbeShare * elapsed) {
      const auto probeStart = Clock::now();
      setupSamples.push_back(setupProbe(options));
      probeSeconds += elapsedSeconds(probeStart);
    }
    const bool tracedFirst = traced && id % 2 == 1;
    if (tracedFirst) runRequest(*workload, &tracer, id, options, tracedPhase);
    runRequest(*workload, nullptr, id, options, untraced);
    if (traced && !tracedFirst) {
      runRequest(*workload, &tracer, id, options, tracedPhase);
    }
  }
  const double peakRss = peakRssMiB();
  std::size_t attempted = untraced.latencyNs.size();
  std::size_t failed = untraced.failed;
  for (const auto& f : untraced.failures) recordFailure(failures, f);

  std::vector<Metric> metrics;
  if (traced) {
    attempted += tracedPhase.latencyNs.size();
    failed += tracedPhase.failed;
    for (const auto& f : tracedPhase.failures) recordFailure(failures, f);
    metrics = perLayerMetrics(*workload, tracer, tracedPhase, untraced,
                              setupSeconds);
    if (tracedPhase.digests != untraced.digests) {
      recordFailure(failures, "traced outputs are not bit-identical to the "
                              "untraced ones");
    }
    for (const Metric& metric : metrics) {
      if (metric.name == "trace.coverage" && !(metric.value >= kMinCoverage)) {
        recordFailure(failures, "trace.coverage " + number(metric.value) +
                                    " is below " + number(kMinCoverage));
      }
    }
    if (!tracer.writeChromeTrace(options.tracePath)) {
      recordFailure(failures, "cannot write " + options.tracePath);
    }
  } else {
    while (setupSamples.size() < kMinSetupSamples) {
      setupSamples.push_back(setupProbe(options));
    }
    metrics = endToEndMetrics(untraced, setupSamples, peakRss);
  }
  for (const auto& f : workload->referenceChecks()) {
    recordFailure(failures, "reference check: " + f);
  }
  const bool correct = failed == 0 && failures.empty();

  std::ostringstream out;
  out << "{\n  \"schema\": \"qclab-e2e-v1\",\n  \"workload\": "
      << quoted(options.workload) << ",\n  \"seed\": " << options.seed
      << ",\n  \"seconds\": " << number(options.seconds)
      << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
      << ",\n  \"traced\": " << (traced ? "true" : "false")
      << ",\n  \"header\": " << headerJson(*workload)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(failures[i]);
  }
  out << "],\n  \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setupSamples.size(); ++i) {
    out << (i == 0 ? "" : ", ") << number(setupSamples[i]);
  }
  out << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    " << quoted(metrics[i].name)
        << ": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "\n  }\n}\n";
  std::fputs(out.str().c_str(), stdout);

  std::fprintf(stderr, "qclab_e2e %s seed %llu%s: %zu requests, %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               traced ? " (traced)" : "", attempted,
               correct ? "all checks passed" : "CHECKS FAILED");
  for (const auto& f : failures) {
    std::fprintf(stderr, "  FAILED %s\n", f.c_str());
  }
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: qclab_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace FILE] [--smoke] [--corrupt-for-test]\n"
               "       qclab_e2e compare [--benchmark BENCHMARK.json] "
               "A.json... -- B.json...\n"
               "workloads:");
  for (const auto& name : workloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "compare") {
      return runCompare({args.begin() + 1, args.end()});
    }
    Options options;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const bool hasValue = i + 1 < args.size();
      if (args[i] == "--workload" && hasValue) {
        options.workload = args[++i];
      } else if (args[i] == "--seed" && hasValue) {
        options.seed = std::stoull(args[++i]);
      } else if (args[i] == "--seconds" && hasValue) {
        options.seconds = std::stod(args[++i]);
      } else if (args[i] == "--trace" && hasValue) {
        options.tracePath = args[++i];
      } else if (args[i] == "--smoke") {
        options.smoke = true;
      } else if (args[i] == "--corrupt-for-test") {
        options.corrupt = true;
      } else if (args[i] == "--setup-only") {
        options.setupOnly = true;
      } else {
        return usage();
      }
    }
    if (options.workload.empty() || !(options.seconds > 0.0)) return usage();
    return runBenchmark(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qclab_e2e: %s\n", error.what());
    return 1;
  }
}
