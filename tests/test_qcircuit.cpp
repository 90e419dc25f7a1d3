/// \file test_qcircuit.cpp
/// \brief Unit tests for the QCircuit container: construction, editing,
/// nesting, unitary extraction, inversion, and validation.

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using C = std::complex<double>;
using M = dense::Matrix<double>;
using namespace qclab::qgates;

TEST(QCircuit, ConstructionAndProperties) {
  QCircuit<double> circuit(3);
  EXPECT_EQ(circuit.nbQubits(), 3);
  EXPECT_EQ(circuit.offset(), 0);
  EXPECT_EQ(circuit.nbObjects(), 0u);
  EXPECT_EQ(circuit.qubits(), (std::vector<int>{0, 1, 2}));
  EXPECT_THROW(QCircuit<double>(0), InvalidArgumentError);
  EXPECT_THROW(QCircuit<double>(2, -1), InvalidArgumentError);
}

TEST(QCircuit, PushBackBothStyles) {
  QCircuit<double> circuit(2);
  // QCLAB++ style with unique_ptr (the paper's §4 snippet).
  circuit.push_back(std::make_unique<Hadamard<double>>(0));
  // Convenience by-value style.
  circuit.push_back(CX<double>(0, 1));
  EXPECT_EQ(circuit.nbObjects(), 2u);
  EXPECT_EQ(circuit.objectAt(0).objectType(), ObjectType::kGate);
}

TEST(QCircuit, PushBackValidatesFit) {
  QCircuit<double> circuit(2);
  EXPECT_THROW(circuit.push_back(Hadamard<double>(2)), InvalidArgumentError);
  EXPECT_THROW(circuit.push_back(CX<double>(0, 5)), InvalidArgumentError);
  EXPECT_THROW(circuit.push_back(CX<double>(5, 0)), InvalidArgumentError);
  EXPECT_NO_THROW(circuit.push_back(CX<double>(0, 1)));
}

TEST(QCircuit, MaxQubitIsTheHighestIndexWhateverItsRole) {
  // Every object that stores its qubits answers without building
  // qubits(); the answer must be that vector's last entry.
  std::vector<std::unique_ptr<QObject<double>>> objects;
  objects.push_back(std::make_unique<Hadamard<double>>(3));
  objects.push_back(std::make_unique<CX<double>>(5, 0));
  objects.push_back(std::make_unique<CX<double>>(0, 5));
  objects.push_back(std::make_unique<RotationZZ<double>>(6, 2, 0.3));
  objects.push_back(std::make_unique<MCX<double>>(std::vector<int>{7, 1}, 3));
  objects.push_back(std::make_unique<MCX<double>>(std::vector<int>{1, 2}, 4));
  objects.push_back(std::make_unique<Fredkin<double>>(6, 1, 2));
  objects.push_back(std::make_unique<Fredkin<double>>(0, 5, 2));
  objects.push_back(std::make_unique<CU<double>>(4, 0, 0.1, 0.2, 0.3));
  objects.push_back(std::make_unique<MatrixGateN<double>>(
      std::vector<int>{1, 3}, M::identity(4)));
  objects.push_back(std::make_unique<Measurement<double>>(4));
  objects.push_back(std::make_unique<Reset<double>>(2));
  objects.push_back(std::make_unique<Barrier<double>>(1, 5));
  objects.push_back(std::make_unique<QCircuit<double>>(3, 2));
  for (const auto& object : objects) {
    EXPECT_EQ(object->maxQubit(), object->qubits().back());
  }
}

TEST(QCircuit, InsertEraseClear) {
  QCircuit<double> circuit(1);
  circuit.push_back(PauliX<double>(0));
  circuit.push_back(PauliZ<double>(0));
  circuit.insert(1, std::make_unique<Hadamard<double>>(0));
  EXPECT_EQ(circuit.nbObjects(), 3u);
  // X H Z = order check through the matrix: first pushed is applied first.
  const auto expected = dense::pauliZ<double>() *
                        Hadamard<double>(0).matrix() *
                        dense::pauliX<double>();
  qclab::test::expectMatrixNear(circuit.matrix(), expected);
  circuit.erase(1);
  EXPECT_EQ(circuit.nbObjects(), 2u);
  EXPECT_THROW(circuit.erase(5), InvalidArgumentError);
  EXPECT_THROW(circuit.insert(9, std::make_unique<Hadamard<double>>(0)),
               InvalidArgumentError);
  circuit.clear();
  EXPECT_EQ(circuit.nbObjects(), 0u);
}

TEST(QCircuit, MatrixOfBellCircuit) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  const auto m = circuit.matrix();
  const double h = 1.0 / std::sqrt(2.0);
  // Columns: |00> -> (|00> + |11>)/sqrt(2).
  EXPECT_NEAR(std::abs(m(0, 0) - C(h)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(m(3, 0) - C(h)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(m(1, 0)), 0.0, 1e-14);
  EXPECT_TRUE(m.isUnitary(1e-13));
}

TEST(QCircuit, MatrixThrowsOnMeasurement) {
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0));
  EXPECT_THROW(circuit.matrix(), InvalidArgumentError);
  QCircuit<double> withReset(1);
  withReset.push_back(Reset<double>(0));
  EXPECT_THROW(withReset.matrix(), InvalidArgumentError);
}

TEST(QCircuit, InvertedReversesAndInverts) {
  auto circuit = qclab::test::randomCircuit<double>(3, 15, 7);
  const auto inverse = circuit.inverted();
  QCircuit<double> both(3);
  both.push_back(QCircuit<double>(circuit));
  both.push_back(QCircuit<double>(inverse));
  qclab::test::expectMatrixNear(both.matrix(), M::identity(8), 1e-11);
}

TEST(QCircuit, InvertedThrowsOnMeasurement) {
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0));
  EXPECT_THROW(circuit.inverted(), InvalidArgumentError);
}

TEST(QCircuit, CloneIsDeep) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  auto cloned = circuit.clone();
  circuit.push_back(CX<double>(0, 1));
  EXPECT_EQ(static_cast<QCircuit<double>&>(*cloned).nbObjects(), 1u);
}

TEST(QCircuit, CopySemantics) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  QCircuit<double> copy(circuit);
  copy.push_back(CX<double>(0, 1));
  EXPECT_EQ(circuit.nbObjects(), 1u);
  EXPECT_EQ(copy.nbObjects(), 2u);
  circuit = copy;
  EXPECT_EQ(circuit.nbObjects(), 2u);
}

TEST(QCircuit, NestedSubCircuitWithOffset) {
  // A Bell-pair preparation on qubits 1-2 of a 3-qubit register.
  QCircuit<double> sub(2, 1);
  sub.push_back(Hadamard<double>(0));
  sub.push_back(CX<double>(0, 1));

  QCircuit<double> parent(3);
  parent.push_back(QCircuit<double>(sub));

  QCircuit<double> direct(3);
  direct.push_back(Hadamard<double>(1));
  direct.push_back(CX<double>(1, 2));

  qclab::test::expectMatrixNear(parent.matrix(), direct.matrix());
}

TEST(QCircuit, DoublyNestedOffsetsAccumulate) {
  QCircuit<double> inner(1, 1);  // qubit 1 of its parent
  inner.push_back(PauliX<double>(0));
  QCircuit<double> middle(2, 1);  // qubits 1-2 of the root
  middle.push_back(QCircuit<double>(inner));
  QCircuit<double> root(3);
  root.push_back(QCircuit<double>(middle));

  QCircuit<double> direct(3);
  direct.push_back(PauliX<double>(2));
  qclab::test::expectMatrixNear(root.matrix(), direct.matrix());
}

TEST(QCircuit, SubCircuitMustFit) {
  QCircuit<double> sub(2, 2);
  sub.push_back(Hadamard<double>(0));
  QCircuit<double> parent(3);
  EXPECT_THROW(parent.push_back(QCircuit<double>(sub)),
               InvalidArgumentError);
}

TEST(QCircuit, BlockFlags) {
  QCircuit<double> circuit(2);
  EXPECT_FALSE(circuit.isBlock());
  circuit.asBlock("oracle");
  EXPECT_TRUE(circuit.isBlock());
  EXPECT_EQ(circuit.label(), "oracle");
  circuit.unBlock();
  EXPECT_FALSE(circuit.isBlock());
}

TEST(QCircuit, NbObjectsRecursive) {
  QCircuit<double> sub(2);
  sub.push_back(Hadamard<double>(0));
  sub.push_back(CX<double>(0, 1));
  QCircuit<double> parent(2);
  parent.push_back(Hadamard<double>(1));
  parent.push_back(QCircuit<double>(sub));
  EXPECT_EQ(parent.nbObjects(), 2u);
  EXPECT_EQ(parent.nbObjectsRecursive(), 3u);
}

TEST(QCircuit, SimulateValidatesInput) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  EXPECT_THROW(circuit.simulate("0"), InvalidArgumentError);
  EXPECT_THROW(circuit.simulate("001"), InvalidArgumentError);
  EXPECT_THROW(circuit.simulate(std::vector<C>(3)), InvalidArgumentError);
  // Unnormalized state rejected.
  std::vector<C> bad(4);
  bad[0] = C(2.0);
  EXPECT_THROW(circuit.simulate(bad), InvalidArgumentError);
}

TEST(QCircuit, QasmHeaderAndBody) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  const auto qasm = circuit.toQASM();
  EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
  EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
  EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
  EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
}

TEST(QCircuit, QasmNestedOffsets) {
  QCircuit<double> sub(1, 1);
  sub.push_back(PauliX<double>(0));
  QCircuit<double> parent(2);
  parent.push_back(QCircuit<double>(sub));
  const auto qasm = parent.toQASM();
  EXPECT_NE(qasm.find("x q[1];"), std::string::npos);
}

class RandomCircuitUnitaritySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomCircuitUnitaritySweep, MatrixIsUnitary) {
  const auto [nbQubits, seed] = GetParam();
  const auto circuit = qclab::test::randomCircuit<double>(nbQubits, 20, seed);
  EXPECT_TRUE(circuit.matrix().isUnitary(1e-11));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomCircuitUnitaritySweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 6),
                       ::testing::Values(11, 22)));

}  // namespace
}  // namespace qclab
