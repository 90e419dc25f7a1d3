/// \file test_fusion_rebind.cpp
/// \brief Tests of fusion-plan parameter rebinding: the stale-matrix
/// regression (a plan does NOT see setTheta until rebound), bitwise
/// equivalence of rebindFusionPlan with re-fusing from scratch, and the
/// firstBlock variants used by the batched engine's prefix cache.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "test_helpers.hpp"

namespace qclab::sim {
namespace {

using namespace qclab::qgates;

template <typename T>
std::vector<GateRef<T>> gateRefs(const QCircuit<T>& circuit) {
  std::vector<GateRef<T>> refs;
  for (const auto& object : circuit) {
    refs.push_back({static_cast<const QGate<T>*>(object.get()), 0});
  }
  return refs;
}

template <typename T>
std::vector<std::complex<T>> zeroState(int nbQubits) {
  std::vector<std::complex<T>> state(std::size_t{1} << nbQubits);
  state[0] = std::complex<T>(1);
  return state;
}

template <typename T>
bool bitIdentical(const std::vector<std::complex<T>>& a,
                  const std::vector<std::complex<T>>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(std::complex<T>)) == 0;
}

/// Bitwise comparison of two plans' materialized products.
template <typename T>
void expectPlansBitIdentical(const FusionPlan<T>& a, const FusionPlan<T>& b) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const auto& x = a.blocks[i];
    const auto& y = b.blocks[i];
    ASSERT_EQ(x.qubits, y.qubits);
    ASSERT_EQ(x.diagonal, y.diagonal);
    if (x.diagonal) {
      ASSERT_TRUE(bitIdentical(x.diag, y.diag)) << "diag block " << i;
    } else {
      ASSERT_EQ(x.matrix.rows(), y.matrix.rows());
      ASSERT_EQ(std::memcmp(x.matrix.data(), y.matrix.data(),
                            x.matrix.rows() * x.matrix.cols() *
                                sizeof(std::complex<T>)),
                0)
          << "dense block " << i;
    }
  }
}

// ---- the stale-matrix regression --------------------------------------

TEST(FusionRebind, SetThetaAloneLeavesPlanStale) {
  // Regression: a fusion plan captures gate matrices at build time.
  // Mutating theta afterwards must not silently change the plan — and
  // rebinding must pick the mutation up.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(RotationZ<double>(1, 0.3));
  circuit.push_back(CX<double>(0, 1));
  const auto refs = gateRefs(circuit);

  FusionOptions options;
  options.maxQubits = 2;
  auto plan = fuseGates(refs, 2, options);

  auto before = zeroState<double>(2);
  applyFusionPlan(before, 2, plan);

  // Mutate the angle; the un-rebound plan still produces the old state.
  static_cast<RotationZ<double>&>(circuit.objectAt(1)).setTheta(-1.2);
  auto stale = zeroState<double>(2);
  applyFusionPlan(stale, 2, plan);
  EXPECT_TRUE(bitIdentical(stale, before));

  // Rebinding refreshes the products: the result changes and matches a
  // plan fused from the mutated circuit bit for bit.
  rebindFusionPlan(plan, refs);
  auto rebound = zeroState<double>(2);
  applyFusionPlan(rebound, 2, plan);
  EXPECT_FALSE(bitIdentical(rebound, before));

  const auto fresh = fuseGates(refs, 2, options);
  auto direct = zeroState<double>(2);
  applyFusionPlan(direct, 2, fresh);
  EXPECT_TRUE(bitIdentical(rebound, direct));
}

// ---- rebind == re-fuse, bit for bit -----------------------------------

TEST(FusionRebind, MatchesFreshFuseOnRandomCircuits) {
  random::Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniformInt(4));  // 2..5 qubits
    QCircuit<double> circuit(n);
    test::addRandomGates(circuit, 24, rng);
    const auto refs = gateRefs(circuit);

    FusionOptions options;
    options.maxQubits = 2 + static_cast<int>(rng.uniformInt(2));
    auto plan = fuseGates(refs, n, options);

    // Mutate every bindable angle, then rebind.
    ParameterBinding<double> binding(circuit);
    std::vector<double> values(binding.nbParameters());
    for (auto& value : values) value = rng.uniform(-3.0, 3.0);
    binding.bind(values);
    rebindFusionPlan(plan, refs);

    expectPlansBitIdentical(plan, fuseGates(refs, n, options));
  }
}

// ---- firstBlock variants (prefix-cache support) -----------------------

TEST(FusionRebind, FirstBlockSkipsLeadingBlocks) {
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));  // block 0 (parameter-free)
  circuit.push_back(Hadamard<double>(1));
  circuit.push_back(RotationZ<double>(2, 0.5));  // later block
  const auto refs = gateRefs(circuit);

  FusionOptions options;
  options.maxQubits = 2;
  auto plan = fuseGates(refs, 3, options);
  ASSERT_GE(plan.blocks.size(), 2u);

  // Poison block 0's matrix, then rebind from block 1: the poison must
  // survive (block 0 untouched) while later blocks refresh.
  static_cast<RotationZ<double>&>(circuit.objectAt(2)).setTheta(-2.0);
  plan.blocks[0].matrix(0, 0) = std::complex<double>(42.0, 0.0);
  rebindFusionPlan(plan, refs, 1);
  EXPECT_EQ(plan.blocks[0].matrix(0, 0), std::complex<double>(42.0, 0.0));

  const auto fresh = fuseGates(refs, 3, options);
  for (std::size_t i = 1; i < plan.blocks.size(); ++i) {
    const auto& x = plan.blocks[i];
    const auto& y = fresh.blocks[i];
    if (x.diagonal) {
      EXPECT_TRUE(bitIdentical(x.diag, y.diag));
    } else {
      EXPECT_EQ(std::memcmp(x.matrix.data(), y.matrix.data(),
                            x.matrix.rows() * x.matrix.cols() *
                                sizeof(std::complex<double>)),
                0);
    }
  }
}

TEST(FusionRebind, ApplyFromFirstBlockMatchesManualSplit) {
  random::Rng rng(7);
  const int n = 5;
  QCircuit<double> circuit(n);
  test::addRandomGates(circuit, 30, rng);
  const auto refs = gateRefs(circuit);

  FusionOptions options;
  options.maxQubits = 2;
  options.blocking = true;
  const auto plan = fuseGates(refs, n, options);
  ASSERT_GE(plan.blocks.size(), 3u);

  auto full = zeroState<double>(n);
  applyFusionPlan(full, n, plan);

  for (std::size_t cut : {std::size_t{1}, plan.blocks.size() / 2,
                          plan.blocks.size() - 1}) {
    // Prefix applied block by block, tail via firstBlock: bit-identical
    // to the uncut application (kernel path choice never depends on
    // where a sweep starts).
    auto split = zeroState<double>(n);
    const std::uint64_t bytes = 2 * split.size() * sizeof(std::complex<double>);
    for (std::size_t i = 0; i < cut; ++i) {
      detail::applyFusedBlock(split, n, plan.blocks[i], bytes);
    }
    applyFusionPlan(split, n, plan, cut);
    EXPECT_TRUE(bitIdentical(split, full)) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace qclab::sim
