/// \file test_apply_alloc.cpp
/// \brief Applying a compiled program allocates nothing per gate: with a
/// counting global operator new, applyRun of an unfused run and
/// applyFusionPlan of a cache-blocked plan make as many heap allocations
/// for a long run as for a short one (sentinel off, after one warm-up
/// application).  Every gate and block runs from the kernel record that
/// compile or fuseGates formed once.

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdlib>
#include <new>
#include <vector>

#include "qclab/qclab.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

}  // namespace

void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with the
// replaced operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace qclab {
namespace {

using namespace qclab::qgates;
using T = double;
constexpr int kQubits = 6;

/// Heap allocations made by one call of `f`.
template <typename F>
std::size_t allocationsOf(const F& f) {
  const std::size_t before = gAllocations.load(std::memory_order_relaxed);
  f();
  return gAllocations.load(std::memory_order_relaxed) - before;
}

/// Turns the numerical-health sentinel off for one test: its checks are
/// throttled, so a due check would land in one measured call only.
class ApplyAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = obs::sentinel().config();
    obs::SentinelConfig off = saved_;
    off.policy = obs::SentinelPolicy::kOff;
    obs::sentinel().configure(off);
  }
  void TearDown() override { obs::sentinel().configure(saved_); }

 private:
  obs::SentinelConfig saved_;
};

/// Appends gate `i` of a 13-gate cycle (every kernel path of the
/// paper's gate set) on local qubits 0..3 of `circuit`.
void pushGate(QCircuit<T>& circuit, int i) {
  switch (i % 13) {
    case 0: circuit.push_back(Hadamard<T>(0)); break;
    case 1: circuit.push_back(PauliX<T>(1)); break;
    case 2: circuit.push_back(PauliZ<T>(2)); break;
    case 3: circuit.push_back(SGate<T>(3)); break;
    case 4: circuit.push_back(TGate<T>(0)); break;
    case 5: circuit.push_back(RotationX<T>(1, 0.3)); break;
    case 6: circuit.push_back(CX<T>(0, 2)); break;
    case 7: circuit.push_back(CZ<T>(1, 3)); break;
    case 8: circuit.push_back(CPhase<T>(2, 0, 0.7)); break;
    case 9: circuit.push_back(SWAP<T>(0, 3)); break;
    case 10: circuit.push_back(iSWAP<T>(1, 2)); break;
    case 11: circuit.push_back(MCZ<T>({0, 1}, 3)); break;
    default: circuit.push_back(Toffoli<T>(2, 3, 0)); break;
  }
}

/// Allocations of one applyRun of an unfused run of `nbGates` gates, every
/// third one inside a sub-circuit at offset 2.
std::size_t unfusedRunAllocations(int nbGates) {
  QCircuit<T> circuit(kQubits);
  for (int i = 0; i < nbGates; ++i) {
    if (i % 3 == 2) {
      QCircuit<T> sub(4, 2);
      pushGate(sub, i);
      circuit.push_back(sub);
    } else {
      pushGate(circuit, i);
    }
  }
  const auto program = sim::compile(circuit.flatten(), 0, kQubits, nullptr);
  EXPECT_EQ(program.steps.size(), 1u);
  EXPECT_EQ(program.steps[0].ops.size(), static_cast<std::size_t>(nbGates));
  std::vector<std::complex<T>> state(std::size_t{1} << kQubits);
  state[0] = 1.0;
  const auto apply = [&] {
    sim::applyRun(state, kQubits, program.steps[0], sim::defaultBackend<T>(),
                  [](const sim::GateRef<T>&) {});
  };
  apply();
  return allocationsOf(apply);
}

/// Allocations of one applyFusionPlan of a plan whose only schedule item
/// is one blocked run of `nbBlocks` blocks (chunks of 3 qubits): one gate
/// per block on qubits 3..5, cycling through a dense pair, a diagonal
/// pair, a dense single qubit and a diagonal pair, so no neighbours merge.
std::size_t blockedRunAllocations(int nbBlocks) {
  QCircuit<T> circuit(kQubits);
  for (int j = 0; j < nbBlocks; ++j) {
    switch (j % 4) {
      case 0: circuit.push_back(CX<T>(3, 4)); break;
      case 1: circuit.push_back(RotationZZ<T>(4, 5, 0.4)); break;
      case 2: circuit.push_back(Hadamard<T>(5)); break;
      default: circuit.push_back(CPhase<T>(3, 4, 0.9)); break;
    }
  }
  sim::FusionOptions options;
  options.blockQubits = 3;
  const auto program = sim::compile(circuit.flatten(), 0, kQubits, &options);
  EXPECT_EQ(program.steps.size(), 1u);
  const sim::FusionPlan<T>& plan = program.steps[0].plan;
  EXPECT_EQ(plan.blocks.size(), static_cast<std::size_t>(nbBlocks));
  EXPECT_EQ(plan.schedule.items.size(), 1u);
  EXPECT_EQ(plan.schedule.blockedRuns(), 1u);
  std::vector<std::complex<T>> state(std::size_t{1} << kQubits);
  state[0] = 1.0;
  const auto apply = [&] { sim::applyFusionPlan(state, kQubits, plan); };
  apply();
  return allocationsOf(apply);
}

TEST_F(ApplyAllocations, UnfusedRunAllocatesNothingPerGate) {
  EXPECT_EQ(unfusedRunAllocations(10), unfusedRunAllocations(100));
}

TEST_F(ApplyAllocations, BlockedRunAllocatesNothingPerBlock) {
  EXPECT_EQ(blockedRunAllocations(2), blockedRunAllocations(20));
}

}  // namespace
}  // namespace qclab
