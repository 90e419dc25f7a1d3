/// \file test_qasm_fuzz.cpp
/// \brief Robustness: the OpenQASM importer must reject malformed input
/// with QasmParseError — never crash, hang, or accept garbage silently.

#include <gtest/gtest.h>

#include "qclab/io/qasm.hpp"
#include "test_helpers.hpp"

namespace qclab::io {
namespace {

/// Parsing must either succeed or throw QasmParseError / a library Error.
void expectGracefulParse(const std::string& source) {
  try {
    const auto circuit = parseQasm<double>(source);
    EXPECT_GE(circuit.nbQubits(), 1);
  } catch (const Error&) {
    // Expected failure mode.
  }
}

TEST(QasmFuzz, RandomPrintableGarbage) {
  random::Rng rng(1);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 []();,->+-*/.\"\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string source = "OPENQASM 2.0;\nqreg q[3];\n";
    const auto length = rng.uniformInt(60);
    for (std::uint64_t i = 0; i < length; ++i) {
      source += alphabet[rng.uniformInt(alphabet.size())];
    }
    expectGracefulParse(source);
  }
}

TEST(QasmFuzz, RandomBytes) {
  random::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::string source;
    const auto length = rng.uniformInt(80);
    for (std::uint64_t i = 0; i < length; ++i) {
      source += static_cast<char>(rng.uniformInt(256));
    }
    expectGracefulParse(source);
  }
}

TEST(QasmFuzz, TruncatedValidPrograms) {
  QCircuit<double> circuit(3);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(qgates::CX<double>(0, 1));
  circuit.push_back(qgates::RotationZ<double>(2, 0.75));
  circuit.push_back(Measurement<double>(1));
  const auto full = circuit.toQASM();
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    expectGracefulParse(full.substr(0, cut));
  }
}

TEST(QasmFuzz, MutatedValidPrograms) {
  QCircuit<double> circuit(2);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(qgates::CPhase<double>(0, 1, 0.5));
  const auto base = circuit.toQASM();
  random::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    const auto position = rng.uniformInt(mutated.size());
    mutated[position] = static_cast<char>(rng.uniformInt(128));
    expectGracefulParse(mutated);
  }
}

TEST(QasmFuzz, DeeplyNestedAngleExpressions) {
  // Heavily parenthesized but valid.
  std::string angle = "pi";
  for (int depth = 0; depth < 40; ++depth) {
    angle = "(" + angle + "/2)";
  }
  const auto circuit = parseQasm<double>(
      "OPENQASM 2.0;\nqreg q[1];\nrx(" + angle + ") q[0];\n");
  EXPECT_EQ(circuit.nbObjects(), 1u);
  // Unbalanced version fails cleanly.
  expectGracefulParse("OPENQASM 2.0;\nqreg q[1];\nrx((((pi) q[0];\n");
  // Parentheses and signs nest up to detail::kMaxAngleDepth, together;
  // deeper angles are rejected instead of overflowing the stack.
  const auto program = [](const std::string& angle) {
    return "OPENQASM 2.0;\nqreg q[1];\nrx(" + angle + ") q[0];\n";
  };
  const auto parens = [](int depth) {
    return std::string(depth, '(') + "pi" + std::string(depth, ')');
  };
  const int bound = detail::kMaxAngleDepth;
  EXPECT_EQ(parseQasm<double>(program(parens(bound))).nbObjects(), 1u);
  EXPECT_EQ(parseQasm<double>(program(std::string(bound, '-') + "pi"))
                .nbObjects(),
            1u);
  EXPECT_EQ(parseQasm<double>(
                program(std::string(bound / 2, '-') + parens(bound / 2)))
                .nbObjects(),
            1u);
  EXPECT_THROW(parseQasm<double>(program(parens(bound + 1))), QasmParseError);
  EXPECT_THROW(parseQasm<double>(program(parens(100000))), QasmParseError);
  EXPECT_THROW(parseQasm<double>(program(std::string(100000, '-') + "pi")),
               QasmParseError);
}

TEST(QasmFuzz, HugeIndicesAndCounts) {
  expectGracefulParse("OPENQASM 2.0;\nqreg q[999999999999999999999];\n");
  expectGracefulParse("OPENQASM 2.0;\nqreg q[2];\nh q[999999999];\n");
  expectGracefulParse("OPENQASM 2.0;\nqreg q[0];\n");
  expectGracefulParse("OPENQASM 2.0;\nqreg q[-3];\n");
  // Literals that read only in part, or out of range, are rejected.
  for (const char* source : {"OPENQASM 2.0;\nqreg q[1e1];\n",
                             "OPENQASM 2.0;\nqreg q[2.9];\n",
                             "OPENQASM 2.0;\nqreg q[2];\nh q[1.7];\n",
                             "OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n"}) {
    EXPECT_THROW(parseQasm<double>(source), QasmParseError) << source;
  }
}

}  // namespace
}  // namespace qclab::io
