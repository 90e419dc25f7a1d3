/// \file test_bench_compare.cpp
/// \brief Tests of the bench-regression harness plumbing in
/// qclab/obs/benchjson.hpp: the minimal JSON parser/serializer round trip,
/// trajectory merging, and — the actual CI gate — the baseline comparator
/// verdicts, including failing on an injected >20% slowdown at tolerance
/// 0.2.  Pure data processing, so these run identically in
/// QCLAB_OBS_DISABLED builds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qclab/obs/benchjson.hpp"
#include "qclab/obs/report.hpp"
#include "qclab/util/errors.hpp"

namespace {

namespace bj = qclab::obs::benchjson;

/// Builds a one-bench trajectory with the given gated timing value plus an
/// informational counter that must never be gated.
bj::JsonValue trajectoryWithTiming(const std::string& benchName,
                                   const std::string& resultName,
                                   double ns, const char* unit = "ns/op") {
  qclab::obs::Report report(benchName);
  report.add(resultName, ns, unit);
  report.add("sweeps/informational", 42.0, "sweeps");
  std::vector<bj::JsonValue> reports;
  reports.push_back(bj::parseJson(report.json()));
  return bj::mergeTrajectory("test", std::move(reports));
}

TEST(BenchJson, ParseRoundTripsEscapesAndNesting) {
  const std::string text =
      "{\"s\": \"a\\\"b\\\\c\\n\\u0041\", \"n\": -2.5e3, \"b\": true, "
      "\"z\": null, \"a\": [1, {\"k\": 2}], \"o\": {}}";
  const bj::JsonValue value = bj::parseJson(text);
  ASSERT_TRUE(value.isObject());
  EXPECT_EQ(value.find("s")->string, "a\"b\\c\nA");
  EXPECT_EQ(value.find("n")->number, -2500.0);
  EXPECT_TRUE(value.find("b")->boolean);
  EXPECT_EQ(value.find("z")->kind, bj::JsonValue::Kind::kNull);
  ASSERT_EQ(value.find("a")->array.size(), 2u);
  EXPECT_EQ(value.find("a")->array[1].find("k")->number, 2.0);

  // Serializer output reparses to the same structure.
  const bj::JsonValue again = bj::parseJson(bj::dumpJson(value));
  EXPECT_EQ(again.find("s")->string, "a\"b\\c\nA");
  EXPECT_EQ(again.find("a")->array[1].find("k")->number, 2.0);
}

TEST(BenchJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(bj::parseJson("{\"a\": }"), qclab::InvalidArgumentError);
  EXPECT_THROW(bj::parseJson("[1, 2"), qclab::InvalidArgumentError);
  EXPECT_THROW(bj::parseJson("{} trailing"), qclab::InvalidArgumentError);
  EXPECT_THROW(bj::parseJson("\"\\q\""), qclab::InvalidArgumentError);
}

TEST(BenchJson, ParsesObsReportJsonAndSchemaIsV4) {
  qclab::obs::Report report("bench_demo");
  report.add("kernel/dense1", 123.5, "ns/op");
  const bj::JsonValue value = bj::parseJson(report.json());
  ASSERT_TRUE(value.isObject());
  EXPECT_EQ(value.stringOr("schema", ""), "qclab-obs-v5");
  EXPECT_EQ(value.stringOr("name", ""), "bench_demo");
  const bj::JsonValue* results = value.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->isArray());
  ASSERT_EQ(results->array.size(), 1u);
  EXPECT_EQ(results->array[0].stringOr("name", ""), "kernel/dense1");
  EXPECT_EQ(results->array[0].find("value")->number, 123.5);
}

TEST(BenchJson, MergeTrajectoryShape) {
  const bj::JsonValue trajectory =
      trajectoryWithTiming("bench_demo", "total/run", 1000.0);
  EXPECT_EQ(trajectory.stringOr("schema", ""), bj::kTrajectorySchema);
  EXPECT_EQ(trajectory.stringOr("label", ""), "test");
  const bj::JsonValue* benches = trajectory.find("benches");
  ASSERT_NE(benches, nullptr);
  ASSERT_EQ(benches->array.size(), 1u);
  EXPECT_EQ(benches->array[0].stringOr("name", ""), "bench_demo");

  bj::JsonValue notAnObject;  // null
  std::vector<bj::JsonValue> bad;
  bad.push_back(notAnObject);
  EXPECT_THROW(bj::mergeTrajectory("x", std::move(bad)),
               qclab::InvalidArgumentError);
}

TEST(BenchCompare, WithinToleranceIsOk) {
  const auto baseline = trajectoryWithTiming("b", "t", 100.0);
  const auto current = trajectoryWithTiming("b", "t", 115.0);
  const auto outcome = bj::compareTrajectories(baseline, current, 0.2);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kOk);
  EXPECT_NEAR(outcome.rows[0].ratio, 1.15, 1e-12);
  EXPECT_FALSE(outcome.failed());
}

TEST(BenchCompare, FailsOnInjectedTwentyFivePercentSlowdown) {
  // The acceptance scenario: a >20% slowdown at tolerance 0.2 must fail.
  const auto baseline = trajectoryWithTiming("b", "t", 100.0);
  const auto current = trajectoryWithTiming("b", "t", 125.0);
  const auto outcome = bj::compareTrajectories(baseline, current, 0.2);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kRegression);
  EXPECT_EQ(outcome.regressions, 1);
  EXPECT_TRUE(outcome.failed());
}

TEST(BenchCompare, ImprovementIsReportedButNeverFails) {
  const auto baseline = trajectoryWithTiming("b", "t", 100.0);
  const auto current = trajectoryWithTiming("b", "t", 70.0);
  const auto outcome = bj::compareTrajectories(baseline, current, 0.2);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kImprovement);
  EXPECT_EQ(outcome.improvements, 1);
  EXPECT_FALSE(outcome.failed());
}

TEST(BenchCompare, MissingBaselineTimingFailsNewTimingDoesNot) {
  const auto baseline = trajectoryWithTiming("b", "t", 100.0);
  const auto renamed = trajectoryWithTiming("b", "t2", 100.0);
  const auto outcome = bj::compareTrajectories(baseline, renamed, 0.2);
  ASSERT_EQ(outcome.rows.size(), 2u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kMissing);
  EXPECT_EQ(outcome.rows[1].verdict, bj::Verdict::kNew);
  EXPECT_EQ(outcome.missing, 1);
  EXPECT_TRUE(outcome.failed());
}

TEST(BenchCompare, CounterUnitsAreNotGated) {
  // Same timings but wildly different "sweeps" counters: still ok, and the
  // counter never shows up as a compared row.
  const auto baseline = trajectoryWithTiming("b", "t", 100.0);
  const auto current = trajectoryWithTiming("b", "t", 100.0);
  const auto outcome = bj::compareTrajectories(baseline, current, 0.0);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].name, "b/t");
}

TEST(BenchCompare, PerTrajectoryTimingsAreGated) {
  // bench_trajectory reports "ns/trajectory" — a lower-is-better time
  // unit that must be gated like "ns/op".
  const auto baseline =
      trajectoryWithTiming("bench_trajectory", "ghz/n=20", 1000.0,
                           "ns/trajectory");
  const auto current =
      trajectoryWithTiming("bench_trajectory", "ghz/n=20", 1500.0,
                           "ns/trajectory");
  const auto outcome = bj::compareTrajectories(baseline, current, 0.2);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kRegression);
  EXPECT_TRUE(outcome.failed());
}

TEST(BenchCompare, ZeroBaselineOnlyChecksPresence) {
  const auto baseline = trajectoryWithTiming("b", "t", 0.0);
  const auto current = trajectoryWithTiming("b", "t", 5000.0);
  const auto outcome = bj::compareTrajectories(baseline, current, 0.2);
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].verdict, bj::Verdict::kOk);
  EXPECT_FALSE(outcome.failed());
}

TEST(BenchCompare, RejectsNegativeToleranceAndNonTrajectories) {
  const auto trajectory = trajectoryWithTiming("b", "t", 100.0);
  EXPECT_THROW(bj::compareTrajectories(trajectory, trajectory, -0.1),
               qclab::InvalidArgumentError);
  const bj::JsonValue notATrajectory = bj::parseJson("{\"benches\": 3}");
  EXPECT_THROW(bj::compareTrajectories(notATrajectory, trajectory, 0.2),
               qclab::InvalidArgumentError);
}

TEST(BenchCompare, ClassificationsComeFromRooflineSections) {
  // A v3 report embeds its roofline verdict; the comparator surfaces it
  // per bench for failure diagnosis.
  const auto trajectory = bj::parseJson(
      "{\"schema\": \"qclab-bench-trajectory-v1\", \"label\": \"t\","
      " \"benches\": ["
      "  {\"name\": \"bench_a\","
      "   \"roofline\": {\"classification\": \"memory-bound\"}},"
      "  {\"name\": \"bench_b\","
      "   \"roofline\": {\"classification\": \"compute-bound\"}},"
      "  {\"name\": \"bench_old\"},"
      "  {\"name\": \"bench_empty\","
      "   \"roofline\": {\"classification\": \"\"}}"
      "]}");
  const auto classifications = bj::benchClassifications(trajectory);
  ASSERT_EQ(classifications.size(), 2u);
  EXPECT_EQ(classifications.at("bench_a"), "memory-bound");
  EXPECT_EQ(classifications.at("bench_b"), "compute-bound");
  EXPECT_EQ(classifications.count("bench_old"), 0u);
  EXPECT_EQ(classifications.count("bench_empty"), 0u);

  // Pre-v3 trajectories (no roofline anywhere) degrade to an empty map.
  const auto old = trajectoryWithTiming("b", "t", 100.0);
  // A real report always carries a roofline section now, so strip it to
  // emulate an old baseline.
  EXPECT_TRUE(bj::benchClassifications(bj::parseJson(
                  "{\"benches\": [{\"name\": \"x\"}]}"))
                  .empty());

  // Reports rendered by this build do carry a classification.
  const auto fromReport = bj::benchClassifications(old);
  EXPECT_EQ(fromReport.count("b"), 1u);
}

}  // namespace
