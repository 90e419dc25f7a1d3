/// \file test_obs.cpp
/// \brief Tests of the qclab::obs observability layer: counter totals vs
/// circuit gate counts, kernel-path tagging on both backends, Chrome
/// trace_event export, report JSON shape, and no-op behaviour of the
/// QCLAB_OBS_DISABLED build (which compiles this same file).

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qclab/obs/benchjson.hpp"
#include "qclab/qclab.hpp"

namespace {

using T = double;
using qclab::sim::KernelPath;

// ---- minimal JSON syntax checker -------------------------------------
// Validates JSON well-formedness (objects, arrays, strings, numbers,
// literals) so the exported trace/report files are guaranteed loadable.

class JsonChecker {
 public:
  explicit JsonChecker(std::string text) : text_(std::move(text)) {}

  bool valid() {
    pos_ = 0;
    skipSpace();
    if (!value()) return false;
    skipSpace();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipSpace();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipSpace();
      if (!string()) return false;
      skipSpace();
      if (peek() != ':') return false;
      ++pos_;
      skipSpace();
      if (!value()) return false;
      skipSpace();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipSpace();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipSpace();
      if (!value()) return false;
      skipSpace();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t begin = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > begin;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// gateCounts() restricted to actual gates (the obs layer never sees
/// measurements, resets, or barriers).
std::map<std::string, std::size_t> gateOnlyCounts(
    const qclab::QCircuit<T>& circuit) {
  auto counts = circuit.gateCounts();
  counts.erase("measure");
  counts.erase("reset");
  counts.erase("barrier");
  return counts;
}

// ---- kernel-path classification (works in all builds) -----------------

TEST(ObsKernelPath, ClassificationPerGateClass) {
  const qclab::sim::KernelBackend<T> kernel;
  const qclab::sim::SparseKronBackend<T> sparse;

  const qclab::qgates::SWAP<T> swap(0, 1);
  const qclab::qgates::CX<T> cnot(0, 1);
  const qclab::qgates::PauliZ<T> pauliZ(0);
  const qclab::qgates::RotationZ<T> rz(0, 0.3);
  const qclab::qgates::Hadamard<T> hadamard(0);
  const qclab::qgates::RotationZZ<T> rzz(0, 1, 0.7);
  const qclab::qgates::iSWAP<T> iswap(0, 1);
  const qclab::qgates::CZ<T> cz(0, 1);
  const qclab::qgates::CPhase<T> cphase(0, 1, 0.5);
  const qclab::qgates::CRotationZ<T> crz(0, 1, 0.5);
  const qclab::qgates::CRotationX<T> crx(0, 1, 0.5);
  const qclab::qgates::MCZ<T> mcz({0, 1}, 2);

  EXPECT_EQ(kernel.dispatchPath(swap), KernelPath::kSwap);
  EXPECT_EQ(kernel.dispatchPath(cnot), KernelPath::kControlled1);
  EXPECT_EQ(kernel.dispatchPath(pauliZ), KernelPath::kDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(rz), KernelPath::kDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(hadamard), KernelPath::kDense1);
  EXPECT_EQ(kernel.dispatchPath(rzz), KernelPath::kDiagonalK);
  EXPECT_EQ(kernel.dispatchPath(iswap), KernelPath::kDenseK);

  // Controlled gates with a diagonal target take the controlled-diagonal
  // fast path; a non-diagonal target (CRX) stays on controlled1.
  EXPECT_EQ(kernel.dispatchPath(cz), KernelPath::kControlledDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(cphase), KernelPath::kControlledDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(crz), KernelPath::kControlledDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(mcz), KernelPath::kControlledDiagonal1);
  EXPECT_EQ(kernel.dispatchPath(crx), KernelPath::kControlled1);

  EXPECT_EQ(sparse.dispatchPath(swap), KernelPath::kSparseKron);
  EXPECT_EQ(sparse.dispatchPath(hadamard), KernelPath::kSparseKron);

  // The decorator reports the path of whatever it wraps.
  const qclab::obs::InstrumentedBackend<T> overKernel(kernel);
  const qclab::obs::InstrumentedBackend<T> overSparse(sparse);
  EXPECT_EQ(overKernel.dispatchPath(cnot), KernelPath::kControlled1);
  EXPECT_EQ(overKernel.dispatchPath(swap), KernelPath::kSwap);
  EXPECT_EQ(overSparse.dispatchPath(cnot), KernelPath::kSparseKron);
}

TEST(ObsKernelPath, NamesAreStable) {
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kSwap), "swap");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kControlled1),
               "controlled1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kDiagonal1),
               "diagonal1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kDense1), "dense1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kSparseKron),
               "sparse-kron");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kControlledDiagonal1),
               "controlled-diagonal1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kFusedDenseK),
               "fused-k");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kFusedDiagonalK),
               "fused-diagonal-k");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kSimdDense1),
               "simd-dense1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kSimdDiagonal1),
               "simd-diagonal1");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kSimdDenseK),
               "simd-dense-k");
  EXPECT_STREQ(qclab::sim::kernelPathName(KernelPath::kBlocked), "blocked");
}

// ---- instrumented simulation equals plain simulation (all builds) -----

TEST(ObsInstrumented, SimulatesIdenticallyToBareBackend) {
  const auto circuit = qclab::algorithms::grover<T>(
      "111", qclab::algorithms::groverIterations(3));
  const qclab::sim::KernelBackend<T> bare;
  const qclab::obs::InstrumentedBackend<T> instrumented(bare);

  const auto plain = circuit.simulate("000", bare);
  const auto metered = circuit.simulate("000", instrumented);

  ASSERT_EQ(plain.nbBranches(), metered.nbBranches());
  for (std::size_t b = 0; b < plain.nbBranches(); ++b) {
    EXPECT_EQ(plain.result(b), metered.result(b));
    EXPECT_EQ(plain.probability(b), metered.probability(b));
    ASSERT_EQ(plain.state(b).size(), metered.state(b).size());
    for (std::size_t i = 0; i < plain.state(b).size(); ++i) {
      // Bit-identical: the decorator must not alter the arithmetic.
      EXPECT_EQ(plain.state(b)[i], metered.state(b)[i]);
    }
  }
}

// ---- build info (all builds) ------------------------------------------

TEST(ObsBuildInfo, SelfDescribing) {
  const std::string info = qclab::buildInfo();
  EXPECT_NE(info.find("qclab 1.0.0"), std::string::npos);
  EXPECT_NE(info.find(qclab::builtWithOpenMP() ? "openmp=on" : "openmp=off"),
            std::string::npos);
  EXPECT_NE(info.find(qclab::builtWithObs() ? "obs=on" : "obs=off"),
            std::string::npos);
  EXPECT_NE(info.find(qclab::builtWithSimd() ? "simd=on" : "simd=off"),
            std::string::npos);
  EXPECT_NE(info.find("scalars=float,double"), std::string::npos);
  EXPECT_EQ(qclab::builtWithObs(), qclab::obs::kEnabled);
}

// ---- report JSON shape (all builds) -----------------------------------

TEST(ObsReport, JsonIsWellFormedAndStamped) {
  qclab::obs::metrics().reset();
  qclab::obs::Report report("unit_test");
  report.add("kernel/h/n=4", 123.5, "ns/op");
  const std::string json = report.json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"qclab-obs-v4\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find(qclab::obs::kEnabled ? "\"obs\": true"
                                           : "\"obs\": false"),
            std::string::npos);
  EXPECT_NE(json.find("kernel/h/n=4"), std::string::npos);
  // v2 sections are present in every build (empty objects when disabled).
  EXPECT_NE(json.find("\"memory\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_touched_by_path\""), std::string::npos);
  // v3 sections likewise: perf counters, roofline, and pipeline stages
  // appear in every build (carrying availability markers when empty).
  EXPECT_NE(json.find("\"perf\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  // v4 sections: sentinel, flight recorder, and profiler totals appear in
  // every build (all zeros / disabled markers when inert).
  EXPECT_NE(json.find("\"sentinel\""), std::string::npos);
  EXPECT_NE(json.find("\"flight\""), std::string::npos);
  EXPECT_NE(json.find("\"profiler\""), std::string::npos);

  const std::string text = report.text();
  EXPECT_NE(text.find("unit_test"), std::string::npos);
  EXPECT_NE(text.find("gate applications"), std::string::npos);
}

// ---- jsonEscape (all builds) ------------------------------------------

/// Round-trips `raw` through jsonEscape and the benchjson parser: the
/// escaped form must be a valid JSON string that decodes back to `raw`.
std::string escapeRoundTrip(const std::string& raw) {
  const std::string wrapped = "\"" + qclab::obs::jsonEscape(raw) + "\"";
  const auto parsed = qclab::obs::benchjson::parseJson(wrapped);
  EXPECT_TRUE(parsed.isString()) << wrapped;
  return parsed.string;
}

TEST(ObsJsonEscape, AllControlCharactersEscape) {
  for (int c = 0x00; c < 0x20; ++c) {
    const std::string raw = std::string("a") +
                            static_cast<char>(c) + std::string("b");
    const std::string escaped = qclab::obs::jsonEscape(raw);
    // No raw control byte may survive into the JSON text.
    for (const char byte : escaped) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u)
          << "control byte 0x" << std::hex << c << " leaked unescaped";
    }
    EXPECT_EQ(escapeRoundTrip(raw), raw) << "control byte 0x" << std::hex
                                         << c;
  }
}

TEST(ObsJsonEscape, NamedEscapesAndQuotes) {
  EXPECT_EQ(qclab::obs::jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(qclab::obs::jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(qclab::obs::jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(qclab::obs::jsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(qclab::obs::jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(escapeRoundTrip("say \"hi\" \\ bye"), "say \"hi\" \\ bye");
}

TEST(ObsJsonEscape, Utf8PassesThroughUntouched) {
  // Multi-byte UTF-8 (Greek, CJK, an emoji) must not be escaped or
  // mangled — bytes >= 0x80 pass through verbatim.
  const std::string utf8 = "ψ⟩ 量子 🧲";
  EXPECT_EQ(qclab::obs::jsonEscape(utf8), utf8);
  EXPECT_EQ(escapeRoundTrip(utf8), utf8);
}

#ifndef QCLAB_OBS_DISABLED

// ---- counters (enabled builds only) -----------------------------------

TEST(ObsMetrics, CounterTotalsMatchGateCounts) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  // A known mixed circuit: 2x H, CX, SWAP, RZ, RZZ, iSWAP.
  qclab::QCircuit<T> circuit(3);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::Hadamard<T>(1));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::qgates::SWAP<T>(1, 2));
  circuit.push_back(qclab::qgates::RotationZ<T>(2, 0.4));
  circuit.push_back(qclab::qgates::RotationZZ<T>(0, 2, 0.7));
  circuit.push_back(qclab::qgates::iSWAP<T>(0, 1));

  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("000", backend);

  const auto expected = gateOnlyCounts(circuit);
  std::size_t expectedTotal = 0;
  for (const auto& [kind, count] : expected) expectedTotal += count;

  const auto observed = metrics.gateKinds();
  EXPECT_EQ(observed.size(), expected.size());
  for (const auto& [kind, count] : expected) {
    ASSERT_TRUE(observed.count(kind)) << "missing kind " << kind;
    EXPECT_EQ(observed.at(kind), count) << "kind " << kind;
  }
  EXPECT_EQ(metrics.gateApplications(), expectedTotal);

  // Path split: H,H dense1; CX controlled1; SWAP swap; RZ diagonal1;
  // RZZ diagonal-k; iSWAP dense-k.  When the SIMD tier is active the
  // dense1/diagonal1/2-qubit-dense applications are counted under the
  // kSimd* variants (dispatch is unchanged — only the attribution moves).
  EXPECT_EQ(metrics.gateApplications(
                qclab::sim::simdCountedPath(KernelPath::kDense1, 1)),
            2u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kControlled1), 1u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kSwap), 1u);
  EXPECT_EQ(metrics.gateApplications(
                qclab::sim::simdCountedPath(KernelPath::kDiagonal1, 1)),
            1u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kDiagonalK), 1u);
  EXPECT_EQ(metrics.gateApplications(
                qclab::sim::simdCountedPath(KernelPath::kDenseK, 2)),
            1u);
  EXPECT_GT(metrics.bytesTouched(), 0u);
  EXPECT_EQ(metrics.circuitSimulations(), 1u);
}

TEST(ObsMetrics, ControlledDiagonalPathCounted) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::CZ<T>(0, 1));
  circuit.push_back(qclab::qgates::CPhase<T>(0, 1, 0.4));
  circuit.push_back(qclab::qgates::CRotationZ<T>(0, 1, 0.3));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));

  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("00", backend);

  EXPECT_EQ(metrics.gateApplications(KernelPath::kControlledDiagonal1), 3u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kControlled1), 1u);
  EXPECT_EQ(metrics.gateApplications(), 4u);
}

TEST(ObsMetrics, FusionCountersTrackPlanApplications) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  // Four single-qubit gates on two qubits fuse into one dense block.
  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::Hadamard<T>(1));
  circuit.push_back(qclab::qgates::TGate<T>(0));
  circuit.push_back(qclab::qgates::PauliX<T>(1));

  qclab::SimulateOptions options;
  options.fusion = true;
  options.fusionOptions.separateDiagonalRuns = false;
  circuit.simulate("00", options);

  EXPECT_EQ(metrics.fusionGatesIn(), 4u);
  EXPECT_EQ(metrics.fusionBlocks(), 1u);
  EXPECT_EQ(metrics.fusionSweepsSaved(), 3u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kFusedDenseK), 1u);
  // The fused sweep is a bare-kernel call: no per-kind histogram entries.
  EXPECT_TRUE(metrics.gateKinds().empty());

  // A diagonal-only run keeps a diagonal block.
  metrics.reset();
  qclab::QCircuit<T> diagonalRun(2);
  diagonalRun.push_back(qclab::qgates::RotationZ<T>(0, 0.3));
  diagonalRun.push_back(qclab::qgates::CZ<T>(0, 1));
  diagonalRun.push_back(qclab::qgates::PauliZ<T>(1));
  diagonalRun.simulate("00", options);

  EXPECT_EQ(metrics.fusionGatesIn(), 3u);
  EXPECT_EQ(metrics.fusionBlocks(), 1u);
  EXPECT_EQ(metrics.gateApplications(KernelPath::kFusedDiagonalK), 1u);

  // The counters surface in the report JSON.
  const std::string json = qclab::obs::Report("fusion_test").json();
  EXPECT_NE(json.find("\"fusion_gates_in\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"fusion_blocks_out\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"fusion_sweeps_saved\": 2"), std::string::npos);
}

TEST(ObsMetrics, GroverCountsMatchAcrossNestedBlocks) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  // Grover uses nested oracle/diffuser sub-circuits: the dynamic per-kind
  // counts must still equal the recursive static counts.
  const auto circuit = qclab::algorithms::grover<T>(
      "1111", qclab::algorithms::groverIterations(4));
  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("0000", backend);

  EXPECT_EQ(metrics.gateKinds(), gateOnlyCounts(circuit));
}

TEST(ObsMetrics, SparseBackendCountsSparseKronPath) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));

  const qclab::sim::SparseKronBackend<T> sparse;
  const qclab::obs::InstrumentedBackend<T> backend(sparse);
  circuit.simulate("00", backend);

  EXPECT_EQ(metrics.gateApplications(KernelPath::kSparseKron), 2u);
  EXPECT_EQ(metrics.gateApplications(), 2u);
}

TEST(ObsMetrics, BranchSpawnAndPruneCounters) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  // Bell pair, both qubits measured: the first measurement forks (one
  // spawn), the second is deterministic per branch (two prunes).
  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::Measurement<T>(0));
  circuit.push_back(qclab::Measurement<T>(1));
  circuit.simulate("00");

  EXPECT_EQ(metrics.branchSpawns(), 1u);
  EXPECT_EQ(metrics.branchPrunes(), 2u);
}

TEST(ObsMetrics, ShotsSampledCounter) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  qclab::QCircuit<T> circuit(1);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::Measurement<T>(0));
  const auto simulation = circuit.simulate("0");
  simulation.counts(1000, /*seed=*/3);
  simulation.countsMap(500, /*seed=*/3);

  EXPECT_EQ(metrics.shotsSampled(), 1500u);
}

TEST(ObsMetrics, NoiseChannelCounter) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  const auto model = qclab::noise::NoiseModel<T>::depolarizing(T(0.01));
  qclab::noise::simulateDensity(circuit, "00", model);

  // H touches 1 qubit, CX touches 2 — one channel application each.
  EXPECT_EQ(metrics.noiseChannelApplications(), 3u);
}

// ---- tracing (enabled builds only) ------------------------------------

TEST(ObsTrace, ChromeTraceParsesAndNests) {
  auto& tracer = qclab::obs::tracer();
  qclab::obs::metrics().reset();
  tracer.clear();
  tracer.enable();

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("00", backend);
  tracer.disable();

  // 2 gate spans + 1 circuit span + the "state/alloc" and "execute"
  // pipeline-stage spans.
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 5u);

  const qclab::obs::TraceEvent* simulateSpan = nullptr;
  const qclab::obs::TraceEvent* executeSpan = nullptr;
  const qclab::obs::TraceEvent* allocSpan = nullptr;
  std::vector<const qclab::obs::TraceEvent*> gateSpans;
  for (const auto& event : events) {
    if (std::string(event.category) == "circuit") {
      simulateSpan = &event;
    } else if (std::string(event.category) == "gate") {
      gateSpans.push_back(&event);
    } else if (event.name == "execute") {
      executeSpan = &event;
    } else if (event.name == "state/alloc") {
      allocSpan = &event;
    }
  }
  ASSERT_NE(simulateSpan, nullptr);
  EXPECT_EQ(simulateSpan->name, "simulate(n=2)");
  ASSERT_EQ(gateSpans.size(), 2u);
  EXPECT_EQ(gateSpans[0]->name, "H");
  EXPECT_EQ(gateSpans[1]->name, "cX");

  // ScopedSpan hierarchy: simulate is a root span, execute nests inside
  // it (parent name + depth recorded), state allocation precedes both.
  EXPECT_EQ(simulateSpan->parent, "");
  EXPECT_EQ(simulateSpan->depth, 0);
  ASSERT_NE(executeSpan, nullptr);
  EXPECT_EQ(executeSpan->parent, "simulate(n=2)");
  EXPECT_EQ(executeSpan->depth, 1);
  ASSERT_NE(allocSpan, nullptr);
  EXPECT_EQ(allocSpan->parent, "");

  // Gate spans nest inside the circuit span.
  for (const auto* gate : gateSpans) {
    EXPECT_GE(gate->startNs, simulateSpan->startNs);
    EXPECT_LE(gate->startNs + gate->durationNs,
              simulateSpan->startNs + simulateSpan->durationNs);
  }

  const std::string json = tracer.chromeTraceJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("simulate(n=2)"), std::string::npos);
  // Ring-buffer accounting and span hierarchy surface in the export.
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
  EXPECT_NE(json.find("\"retainedEvents\":5"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"parent\":\"simulate(n=2)\",\"depth\":1}"),
            std::string::npos);
  tracer.clear();
}

TEST(ObsTrace, RingBufferEvictsOldestAndCountsDropped) {
  qclab::obs::Tracer tracer(4);
  tracer.enable();
  for (int i = 0; i < 10; ++i) {
    tracer.record("span" + std::to_string(i), "test",
                  static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(tracer.nbEvents(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "span6");  // oldest retained
  EXPECT_EQ(events.back().name, "span9");   // newest

  // The eviction count is part of the export, so a truncated trace is
  // detectable from the artifact alone.
  const std::string json = tracer.chromeTraceJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"droppedEvents\":6"), std::string::npos);
  EXPECT_NE(json.find("\"retainedEvents\":4"), std::string::npos);
  EXPECT_EQ(json.find("span0"), std::string::npos);  // evicted
  EXPECT_NE(json.find("span6"), std::string::npos);  // retained

  // clear() resets the eviction count along with the events.
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_NE(tracer.chromeTraceJson().find("\"droppedEvents\":0"),
            std::string::npos);
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  qclab::obs::Tracer tracer;  // enabled() defaults to false
  tracer.record("ignored", "test", 0, 1);
  EXPECT_EQ(tracer.nbEvents(), 0u);
  JsonChecker checker(tracer.chromeTraceJson());
  EXPECT_TRUE(checker.valid());
}

// ---- pipeline stages (enabled builds only) ----------------------------

TEST(ObsStages, PipelineStagesAccumulateWithTracerOff) {
  qclab::obs::resetAll();
  ASSERT_FALSE(qclab::obs::tracer().enabled());

  const auto circuit = qclab::io::parseQasm<T>(
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[2];\n"
      "creg c[2];\n"
      "h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n");
  const auto optimized = qclab::transpile::optimize(circuit);
  const auto simulation = optimized.simulate("00");
  simulation.counts(64, /*seed=*/7);

  const auto stages = qclab::obs::stageStats().snapshot();
  for (const char* stage : {"qasm/parse", "transpile/optimize",
                            "state/alloc", "simulate", "execute", "measure",
                            "sample/counts"}) {
    ASSERT_TRUE(stages.count(stage)) << "missing stage " << stage;
    EXPECT_GE(stages.at(stage).count, 1u) << stage;
  }
  // The display name of the simulate span carries the qubit count, the
  // stage key must not.
  EXPECT_EQ(stages.count("simulate(n=2)"), 0u);

  // The stage breakdown surfaces in the report (JSON and text).
  const std::string json = qclab::obs::Report("stage_test").json();
  EXPECT_NE(json.find("\"qasm/parse\""), std::string::npos);
  EXPECT_NE(json.find("\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_ns\""), std::string::npos);
  const std::string text = qclab::obs::Report("stage_test").text();
  EXPECT_NE(text.find("stage"), std::string::npos);
  qclab::obs::resetAll();
}

TEST(ObsStages, ScopedSpanTracksParentAndDepth) {
  qclab::obs::resetAll();
  auto& tracer = qclab::obs::tracer();
  tracer.enable();
  {
    const qclab::obs::ScopedSpan outer("outer", "test");
    {
      const qclab::obs::ScopedSpan inner("inner", "test");
      const qclab::obs::ScopedSpan innermost("innermost", "test", "leaf");
    }
  }
  tracer.disable();

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);  // completion order: innermost, inner, outer
  EXPECT_EQ(events[0].name, "innermost");
  EXPECT_EQ(events[0].parent, "inner");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent, "outer");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].parent, "");
  EXPECT_EQ(events[2].depth, 0);

  // Stage aggregation keys on the explicit stageKey when given.
  const auto stages = qclab::obs::stageStats().snapshot();
  EXPECT_TRUE(stages.count("outer"));
  EXPECT_TRUE(stages.count("inner"));
  EXPECT_TRUE(stages.count("leaf"));
  EXPECT_EQ(stages.count("innermost"), 0u);
  qclab::obs::resetAll();
}

// ---- perf counters (enabled builds only) ------------------------------

TEST(ObsPerf, CapabilityIsSelfDescribing) {
  const auto& capability = qclab::obs::perfCapability();
  // Either some counter tier opened, or the reason says why not (e.g. no
  // vPMU in a VM, perf_event_paranoid); both are valid environments.
  if (!capability.any()) {
    EXPECT_FALSE(capability.reason.empty());
  }
  // LLC and stalled-cycle counters require the hardware tier.
  if (capability.llc) EXPECT_TRUE(capability.hardware);
  if (capability.stalled) EXPECT_TRUE(capability.hardware);
}

TEST(ObsPerf, RegistryOffByDefaultAndRecordsWhenEnabled) {
  auto& registry = qclab::obs::perfRegistry();
  registry.reset();
  registry.disable();

  {
    const qclab::obs::PerfScope scope(KernelPath::kDense1);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  EXPECT_TRUE(registry.counts(KernelPath::kDense1).empty())
      << "disabled registry must not record";

  registry.enable();
  EXPECT_TRUE(registry.enabled());
  {
    const qclab::obs::PerfScope scope(KernelPath::kDense1);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  registry.disable();

  const auto counts = registry.counts(KernelPath::kDense1);
  if (qclab::obs::perfCapability().any()) {
    EXPECT_EQ(counts.samples, 1u);
    // The software tier at minimum delivers task-clock time; the hardware
    // tier additionally delivers cycles/instructions.
    EXPECT_GT(counts.taskClockNs + counts.cycles, 0u);
    EXPECT_EQ(registry.total().samples, counts.samples);
  } else {
    EXPECT_TRUE(counts.empty());
  }
  registry.reset();
  EXPECT_TRUE(registry.counts(KernelPath::kDense1).empty());
}

TEST(ObsPerf, PathTimerFeedsPerfRegistry) {
  qclab::obs::resetAll();
  auto& registry = qclab::obs::perfRegistry();
  registry.enable();

  qclab::QCircuit<T> circuit(4);
  for (int q = 0; q < 4; ++q) {
    circuit.push_back(qclab::qgates::Hadamard<T>(q));
  }
  const qclab::obs::InstrumentedBackend<T> backend;
  circuit.simulate("0000", backend);
  registry.disable();

  if (qclab::obs::perfCapability().any()) {
    // Every timed gate application sampled the counters on its path.
    EXPECT_EQ(registry.total().samples, 4u);
  } else {
    EXPECT_EQ(registry.total().samples, 0u);
  }
  qclab::obs::resetAll();
}

// ---- roofline (enabled builds only) -----------------------------------

TEST(ObsRoofline, CalibrationMeasuresOrExplains) {
  const auto& calibration = qclab::obs::rooflineCalibration();
  if (calibration.measured) {
    EXPECT_GT(calibration.peakGBps, 0.0);
    EXPECT_FALSE(calibration.source.empty());
  } else {
    // Only the env kill-switch produces an unmeasured enabled build.
    EXPECT_NE(calibration.source.find("QCLAB_OBS_NO_ROOFLINE"),
              std::string::npos);
  }
}

TEST(ObsRoofline, ClassificationHeuristics) {
  const qclab::obs::PerfCounts none;
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.9, none), "memory-bound");
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.3, none), "memory-bound");
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.05, none), "compute-bound");
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.0, none), "indeterminate");

  // With LLC data the miss rate decides below the 50% bandwidth line.
  qclab::obs::PerfCounts missy;
  missy.samples = 1;
  missy.llcReferences = 100;
  missy.llcMisses = 60;
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.1, missy), "memory-bound");
  missy.llcMisses = 2;
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.1, missy), "compute-bound");

  // Without LLC but with cycles, IPC decides.
  qclab::obs::PerfCounts stalled;
  stalled.samples = 1;
  stalled.cycles = 1000;
  stalled.instructions = 400;
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.1, stalled), "memory-bound");
  stalled.instructions = 2500;
  EXPECT_EQ(qclab::obs::classifyBoundedness(0.1, stalled), "compute-bound");
}

TEST(ObsRoofline, PointPlacement) {
  const qclab::obs::PerfCounts none;
  // No data -> idle, no rates.
  const auto idle =
      qclab::obs::rooflinePoint(KernelPath::kDense1, 0, 100, none);
  EXPECT_EQ(idle.classification, "idle");
  EXPECT_EQ(idle.achievedGBps, 0.0);

  // 64 bytes in 32 ns = 2 GB/s; dense1 intensity = 14/32 flops/byte.
  const auto point =
      qclab::obs::rooflinePoint(KernelPath::kDense1, 64, 32, none);
  EXPECT_DOUBLE_EQ(point.achievedGBps, 2.0);
  EXPECT_DOUBLE_EQ(point.intensityFlopsPerByte, 14.0 / 32.0);
  EXPECT_DOUBLE_EQ(point.estGflops, 2.0 * 14.0 / 32.0);
  EXPECT_FALSE(point.classification.empty());

  // Per-path constants that the attribution depends on.
  EXPECT_EQ(qclab::obs::flopsPerAmp(KernelPath::kSwap), 0.0);
  EXPECT_EQ(qclab::obs::bytesPerAmp(KernelPath::kSwap), 16.0);
  EXPECT_EQ(qclab::obs::bytesPerAmp(KernelPath::kSparseKron), 64.0);
  EXPECT_EQ(qclab::obs::bytesPerAmp(KernelPath::kDense1), 32.0);
}

#else  // QCLAB_OBS_DISABLED

// ---- no-op build (disabled builds only) -------------------------------

TEST(ObsDisabled, CountersStayZeroAndTraceStaysEmpty) {
  auto& metrics = qclab::obs::metrics();
  metrics.reset();
  auto& tracer = qclab::obs::tracer();
  tracer.enable();  // must be a no-op

  qclab::QCircuit<T> circuit(2);
  circuit.push_back(qclab::qgates::Hadamard<T>(0));
  circuit.push_back(qclab::qgates::CX<T>(0, 1));
  circuit.push_back(qclab::Measurement<T>(0));
  const qclab::obs::InstrumentedBackend<T> backend;
  const auto simulation = circuit.simulate("00", backend);
  simulation.counts(100, /*seed=*/1);

  EXPECT_EQ(metrics.gateApplications(), 0u);
  EXPECT_TRUE(metrics.gateKinds().empty());
  EXPECT_EQ(metrics.branchSpawns(), 0u);
  EXPECT_EQ(metrics.shotsSampled(), 0u);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.nbEvents(), 0u);

  JsonChecker trace(tracer.chromeTraceJson());
  EXPECT_TRUE(trace.valid());
  EXPECT_NE(tracer.chromeTraceJson().find("\"droppedEvents\":0"),
            std::string::npos);
}

TEST(ObsDisabled, V3SurfacesAreInertNoOps) {
  // Stage spans: construct, nest, destroy — nothing recorded.
  {
    const qclab::obs::ScopedSpan outer("outer");
    const qclab::obs::ScopedSpan inner("inner", "stage", "key");
  }
  EXPECT_TRUE(qclab::obs::stageStats().snapshot().empty());

  // Perf: capability reports the disabled build, the registry stays off
  // even after enable(), scopes record nothing.
  const auto& capability = qclab::obs::perfCapability();
  EXPECT_FALSE(capability.any());
  EXPECT_NE(capability.reason.find("QCLAB_OBS_DISABLED"),
            std::string::npos);
  auto& registry = qclab::obs::perfRegistry();
  registry.enable();
  EXPECT_FALSE(registry.enabled());
  {
    const qclab::obs::PerfScope scope(KernelPath::kDense1);
  }
  EXPECT_TRUE(registry.total().empty());

  // Roofline: never calibrates, explains why.
  const auto& calibration = qclab::obs::rooflineCalibration();
  EXPECT_FALSE(calibration.measured);
  EXPECT_NE(calibration.source.find("QCLAB_OBS_DISABLED"),
            std::string::npos);

  // resetAll is callable and inert.
  qclab::obs::resetAll();

  // The report still renders the v3 sections with explicit markers.
  const std::string json = qclab::obs::Report("disabled_v3").json();
  EXPECT_NE(json.find("\"perf\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("QCLAB_OBS_DISABLED"), std::string::npos);
}

#endif  // QCLAB_OBS_DISABLED

}  // namespace
