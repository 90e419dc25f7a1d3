#pragma once

/// \file compare.hpp
/// \brief `qclab_e2e compare <set A...> -- <set B...>`: median and
/// quartiles of every metric x workload in two sets of result files, with
/// the end-to-end metrics whose medians differ by more than their bound
/// in BENCHMARK.json flagged.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qclab/obs/benchjson.hpp"
#include "stats.hpp"

namespace qclab::e2e {

namespace detail {

using obs::benchjson::JsonValue;

inline JsonValue readJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return obs::benchjson::parseJson(text.str());
}

struct Bound {
  double share = 0.0;
  bool higherIsBetter = false;
};

/// (workload, metric) -> one value per result file of a set.
using MetricSet = std::map<std::pair<std::string, std::string>,
                           std::vector<double>>;

}  // namespace detail

/// Returns 0 when no end-to-end median got worse by more than its bound
/// and every run was correct, 1 otherwise.
inline int runCompare(const std::vector<std::string>& args) {
  using detail::JsonValue;
  std::string benchmarkPath = "BENCHMARK.json";
  std::vector<std::string> sets[2];
  int side = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--benchmark" && i + 1 < args.size()) {
      benchmarkPath = args[++i];
    } else if (args[i] == "--") {
      side = 1;
    } else {
      sets[side].push_back(args[i]);
    }
  }
  if (sets[0].empty() || sets[1].empty()) {
    std::fprintf(stderr,
                 "usage: qclab_e2e compare [--benchmark BENCHMARK.json] "
                 "A.json... -- B.json...\n");
    return 2;
  }

  std::map<std::string, detail::Bound> bounds;
  const JsonValue benchmark = detail::readJsonFile(benchmarkPath);
  if (const JsonValue* list = benchmark.find("end_to_end")) {
    for (const JsonValue& metric : list->array) {
      bounds[metric.stringOr("name", "")] = {
          metric.find("bound") ? metric.find("bound")->number : 0.0,
          metric.stringOr("better", "lower") == "higher"};
    }
  }

  bool failed = false;
  detail::MetricSet values[2];
  std::map<std::string, std::string> units;
  for (int s = 0; s < 2; ++s) {
    for (const std::string& path : sets[s]) {
      const JsonValue run = detail::readJsonFile(path);
      const JsonValue* correct = run.find("correct");
      if (correct == nullptr || !correct->boolean) {
        std::printf("FAILED RUN: %s\n", path.c_str());
        failed = true;
      }
      const std::string workload = run.stringOr("workload", "?");
      if (const JsonValue* metrics = run.find("metrics")) {
        for (const auto& [name, metric] : metrics->object) {
          if (const JsonValue* value = metric.find("value")) {
            values[s][{workload, name}].push_back(value->number);
            units[name] = metric.stringOr("unit", "");
          }
        }
      }
    }
  }

  std::printf("%-16s %-34s %-6s %-32s %-32s %9s\n", "workload", "metric",
              "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A-1");
  for (const auto& [key, a] : values[0]) {
    const auto other = values[1].find(key);
    if (other == values[1].end()) continue;
    const std::vector<double>& b = other->second;
    const double medianA = median(a);
    const double medianB = median(b);
    const double change =
        medianA == 0.0 ? (medianB == 0.0 ? 0.0 : INFINITY)
                       : (medianB - medianA) / std::abs(medianA);
    std::string flag;
    if (const auto bound = bounds.find(key.second); bound != bounds.end()) {
      const double worse = bound->second.higherIsBetter ? -change : change;
      if (worse > bound->second.share) {
        flag = "WORSE";
        failed = true;
      } else if (-worse > bound->second.share) {
        flag = "better";
      }
    }
    char cellA[64];
    char cellB[64];
    std::snprintf(cellA, sizeof(cellA), "%.5g [%.5g, %.5g]", medianA,
                  quantile(a, 0.25), quantile(a, 0.75));
    std::snprintf(cellB, sizeof(cellB), "%.5g [%.5g, %.5g]", medianB,
                  quantile(b, 0.25), quantile(b, 0.75));
    std::printf("%-16s %-34s %-6s %-32s %-32s %+8.2f%% %s\n",
                key.first.c_str(), key.second.c_str(),
                units[key.second].c_str(), cellA, cellB, change * 100.0,
                flag.c_str());
  }
  return failed ? 1 : 0;
}

}  // namespace qclab::e2e
