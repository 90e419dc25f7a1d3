/// \file test_qasm.cpp
/// \brief Unit tests for OpenQASM 2.0 export (paper §4) and the importer,
/// including full round trips.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>

#include "qclab/io/qasm.hpp"
#include "test_helpers.hpp"

namespace qclab::io {
namespace {

using namespace qclab::qgates;

TEST(QasmExport, PaperCircuitOutput) {
  // The paper §4 shows the exact QASM for circuit (1).
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(1));
  EXPECT_EQ(circuit.toQASM(),
            "OPENQASM 2.0;\n"
            "include \"qelib1.inc\";\n"
            "qreg q[2];\n"
            "creg c[2];\n"
            "h q[0];\n"
            "cx q[0], q[1];\n"
            "measure q[0] -> c[0];\n"
            "measure q[1] -> c[1];\n");
}

TEST(QasmLexer, TokenKinds) {
  const auto tokens = tokenizeQasm("h q[0]; // comment\nrx(1.5e-2) q[1];");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, Token::Type::kIdentifier);
  EXPECT_EQ(tokens[0].text, "h");
  EXPECT_EQ(tokens.back().type, Token::Type::kEnd);
  // The exponent literal survives as one number.
  bool found = false;
  for (const auto& token : tokens) {
    if (token.type == Token::Type::kNumber && token.text == "1.5e-2") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(QasmLexer, LineTracking) {
  const auto tokens = tokenizeQasm("a\nb\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
}

TEST(QasmLexer, RejectsGarbage) {
  EXPECT_THROW(tokenizeQasm("h q[0] @"), QasmParseError);
  EXPECT_THROW(tokenizeQasm("include \"unterminated"), QasmParseError);
}

TEST(QasmParse, MinimalProgram) {
  const auto circuit = parseQasm<double>(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
      "h q[0];\ncx q[0], q[1];\n");
  EXPECT_EQ(circuit.nbQubits(), 2);
  EXPECT_EQ(circuit.nbObjects(), 2u);
}

TEST(QasmParse, AngleExpressions) {
  const auto circuit = parseQasm<double>(
      "OPENQASM 2.0;\nqreg q[1];\n"
      "rx(pi/2) q[0];\nry(-pi) q[0];\nrz(3*pi/4) q[0];\n"
      "p(0.25) q[0];\nu3(pi/2, -(pi/4), 1.5e-1+2) q[0];\n");
  ASSERT_EQ(circuit.nbObjects(), 5u);
  const auto& rx = static_cast<const RotationX<double>&>(circuit.objectAt(0));
  EXPECT_NEAR(rx.theta(), M_PI_2, 1e-12);
  const auto& ry = static_cast<const RotationY<double>&>(circuit.objectAt(1));
  EXPECT_NEAR(ry.theta(), -M_PI, 1e-12);
  const auto& rz = static_cast<const RotationZ<double>&>(circuit.objectAt(2));
  EXPECT_NEAR(rz.theta(), 3.0 * M_PI / 4.0, 1e-12);
  const auto& u = static_cast<const U3<double>&>(circuit.objectAt(4));
  EXPECT_NEAR(u.lambda(), 2.15, 1e-12);
}

TEST(QasmParse, MeasureResetBarrier) {
  const auto circuit = parseQasm<double>(
      "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n"
      "measure q[1] -> c[1];\nreset q[0];\nbarrier q[0], q[2];\n");
  ASSERT_EQ(circuit.nbObjects(), 3u);
  EXPECT_EQ(circuit.objectAt(0).objectType(), ObjectType::kMeasurement);
  EXPECT_EQ(circuit.objectAt(1).objectType(), ObjectType::kReset);
  EXPECT_EQ(circuit.objectAt(2).objectType(), ObjectType::kBarrier);
}

TEST(QasmParse, Errors) {
  EXPECT_THROW(parseQasm<double>("qreg q[2];"), QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 3.0;\nqreg q[2];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nh q[0];"), QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nh q[5];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[2];\ncx q[0];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx() q[0];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;"), QasmParseError);
  EXPECT_THROW(
      parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];"),
      QasmParseError);
  // Literals are read whole and in range; classical bits are checked.
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx(1.2.3) q[0];"),
               QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx(1..5) q[0];"),
               QasmParseError);
  EXPECT_THROW(
      parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx(1e-999) q[0];"),
      QasmParseError);
  EXPECT_THROW(parseQasm<double>("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
                                 "measure q[0] -> c[9];"),
               QasmParseError);
}

/// A malformed program and the error the importer reports for it.
struct Diagnostic {
  const char* source;
  int line;
  const char* message;
};

/// Every malformed program of QasmParse.Errors, the reader's literal,
/// register and bit checks, and more syntax errors, with the message and
/// line reported.  Errors name the line their statement starts on, also
/// in the entries marked "next token", whose offending token or end of
/// input lies on a later line.
const Diagnostic kDiagnostics[] = {
    {"qreg q[2];", 1, "program must start with OPENQASM"},
    {"qreg\nq[2];", 1, "program must start with OPENQASM"},  // next token
    {"OPENQASM 3.0;\nqreg q[2];", 1, "unsupported OpenQASM version 3.0"},
    {"OPENQASM 3.0\n;", 1, "unsupported OpenQASM version 3.0"},  // next token
    {"OPENQASM 2.0;\nh q[0];", 2, "statement before qreg declaration"},
    {"OPENQASM 2.0;\nqreg q[1];\nh q[5];", 3, "qubit index out of range"},
    {"OPENQASM 2.0;\nqreg q[2];\ncx q[0],\nq[5];", 3,  // next token
     "qubit index out of range"},
    {"OPENQASM 2.0;\nqreg q[1];\nfoo q[0];", 3, "unsupported gate 'foo'"},
    {"OPENQASM 2.0;\ninclude \"a\nb\";\nqreg q[1];\nfoo q[0];", 5,
     "unsupported gate 'foo'"},  // a newline inside the include string
    {"OPENQASM 2.0;\n\nqreg q[1];\nh q[0];\n\nfoo q[0];\n", 6,
     "unsupported gate 'foo'"},
    {"OPENQASM 2.0;\nqreg q[2];\ncx q[0];", 3, "gate 'cx' expects 2 qubit(s)"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx() q[0];", 3,
     "expected number, pi, or '(' in angle expression"},
    {"OPENQASM 2.0;", 1, "program declares no quantum register"},
    {"OPENQASM 2.0;\n\n", 1,  // next token
     "program declares no quantum register"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];", 3,
     "division by zero in angle"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1/\n0) q[0];", 3,  // next token
     "division by zero in angle"},
    {"OPENQASM 2.0;\nqreg q[1];\nh q[0] @", 3, "unexpected character '@'"},
    {"OPENQASM 2.0;\ninclude \"unterminated", 2, "unterminated string"},
    {"", 1, "expected identifier, got ''"},
    {"2.0;", 1, "expected identifier, got '2.0'"},
    {"OPENQASM;", 1, "expected version number"},
    {"OPENQASM 2.0", 1, "expected ';', got ''"},
    {"OPENQASM 2.0;\ninclude qelib1;", 2, "expected include file name"},
    {"OPENQASM 2.0;\nOPENQASM 2.0;", 2, "statement before qreg declaration"},
    {"OPENQASM 2.0;\nqreg q[2];\nqreg r[2];", 3,
     "multiple quantum registers are not supported"},
    {"OPENQASM 2.0;\nqreg 5;", 2, "expected identifier, got '5'"},
    {"OPENQASM 2.0;\nqreg q[0];", 2, "qreg must have at least one qubit"},
    {"OPENQASM 2.0;\nqreg q[-3];", 2, "expected integer, got '-'"},
    {"OPENQASM 2.0;\nqreg q[999999999999999999999];", 2,
     "integer literal '999999999999999999999' is out of range"},
    {"OPENQASM 2.0;\nqreg q[2.9];", 2, "expected integer, got '2.9'"},
    {"OPENQASM 2.0;\nqreg q[1e1];", 2, "expected integer, got '1e1'"},
    {"OPENQASM 2.0;\nqreg q[2];\nh q[1.7];", 3, "expected integer, got '1.7'"},
    {"OPENQASM 2.0;\nqreg q[2];\nh r[0];", 3, "unknown quantum register 'r'"},
    {"OPENQASM 2.0;\nqreg q[2];\nh r\n[0];", 3,  // next token
     "unknown quantum register 'r'"},
    {"OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -> c[0];", 3,
     "unknown classical register 'c'"},
    {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> d[0];", 4,
     "unknown classical register 'd'"},
    {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[9];", 4,
     "classical bit index out of range"},
    {"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[2.5];", 4,
     "expected integer, got '2.5'"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1.2.3) q[0];", 3,
     "expected number, got '1.2.3'"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1..5) q[0];", 3,
     "expected number, got '1..5'"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];", 3,
     "number literal '1e999' is out of range"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(1e-999) q[0];", 3,
     "number literal '1e-999' is out of range"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx((pi) q[0];", 3, "expected ')', got 'q'"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(0.5 q[0];", 3, "expected ')', got 'q'"},
    {"OPENQASM 2.0;\nqreg q[1];\nrx(pi pi) q[0];", 3, "expected ')', got 'pi'"},
    {"OPENQASM 2.0;\nqreg q[1];\nu3(1,2) q[0];", 3, "expected ',', got ')'"},
    {"OPENQASM 2.0;\nqreg q[1];\nh(0.5) q[0];", 3,
     "expected identifier, got '('"},
    {"OPENQASM 2.0;\nqreg q[1];\nh q;", 3, "expected '[', got ';'"},
    {"OPENQASM 2.0;\nqreg q[1];\nh q[0]\nh q[0];", 3,  // next token
     "expected ';', got 'h'"},
    {"OPENQASM 2.0;\nqreg q[1];\nreset q[0]", 3, "expected ';', got ''"},
    {"OPENQASM 2.0;\nqreg q[1];\nbarrier;", 3, "expected identifier, got ';'"},
};

void expectDiagnostic(const std::function<void()>& parse,
                      const Diagnostic& expected) {
  try {
    parse();
    ADD_FAILURE() << "accepted";
  } catch (const QasmParseError& error) {
    EXPECT_EQ(error.line(), expected.line);
    EXPECT_EQ(std::string(error.what()),
              "QASM parse error (line " + std::to_string(expected.line) +
                  "): " + expected.message);
  }
}

TEST(QasmParse, DiagnosticsTable) {
  for (const Diagnostic& diagnostic : kDiagnostics) {
    // CRLF line endings report the same lines as LF.
    for (const char* newline : {"\n", "\r\n"}) {
      std::string source;
      for (const char* c = diagnostic.source; *c != '\0'; ++c) {
        source += *c == '\n' ? std::string(newline) : std::string(1, *c);
      }
      SCOPED_TRACE(source);
      expectDiagnostic([&] { parseQasm<double>(source); }, diagnostic);
    }
  }
  // QasmLexer.RejectsGarbage's inputs, through the tokenizer.
  expectDiagnostic([] { tokenizeQasm("h q[0] @"); },
                   {"", 1, "unexpected character '@'"});
  expectDiagnostic([] { tokenizeQasm("include \"unterminated"); },
                   {"", 1, "unterminated string"});
}

/// rx(<literal>) reads the double std::strtod reads, bit for bit.
TEST(QasmParse, LiteralsReadLikeStrtod) {
  const char* literals[] = {
      "0.1", ".5", "5.", "9007199254740993", "2.2250738585072014e-308",
      "1.7976931348623157e308", "0.78539816339744828",
      "1234567890123456789012345678901234567890e-39",  // 40-digit mantissa
      "1.0000000000000464e-310"};
  for (const char* literal : literals) {
    SCOPED_TRACE(literal);
    const auto circuit = parseQasm<double>(
        std::string("OPENQASM 2.0;\nqreg q[1];\nrx(") + literal + ") q[0];");
    const auto& rx = static_cast<const RotationX<double>&>(circuit.objectAt(0));
    const RotationX<double> expected(0, std::strtod(literal, nullptr));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rx.theta()),
              std::bit_cast<std::uint64_t>(expected.theta()));
    qclab::test::expectMatrixNear(rx.matrix(), expected.matrix(), 0.0);
  }
  // Angle arithmetic is the same double arithmetic C++ does.
  const auto circuit =
      parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nrx(pi/3*2) q[0];");
  const auto& rx = static_cast<const RotationX<double>&>(circuit.objectAt(0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rx.theta()),
            std::bit_cast<std::uint64_t>(
                RotationX<double>(0, M_PI / 3 * 2).theta()));
}

TEST(QasmParse, AdversarialSizes) {
  std::string program = "OPENQASM 2.0;\nqreg q[2];\n";
  for (int i = 0; i < 100000; ++i) {
    program += i % 2 == 0 ? "h q[1];\n" : "cx q[0], q[1];\n";
  }
  EXPECT_EQ(parseQasm<double>(program).nbObjects(), 100000u);
  // A program may end in a comment with no newline after it.
  EXPECT_EQ(parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nh q[0]; // end")
                .nbObjects(),
            1u);
}

TEST(QasmParse, WideRegisterSamplesOnTheTableau) {
  // A register no statevector can hold is valid input: a Clifford program
  // on it parses and samples on the stabilizer tableau; only the
  // statevector drivers reject it.
  const int n = 100;
  std::string program = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                        "qreg q[100];\ncreg c[100];\nh q[0];\n";
  for (int q = 1; q < n; ++q) {
    program += "cx q[" + std::to_string(q - 1) + "], q[" +
               std::to_string(q) + "];\n";
  }
  for (int q = 0; q < n; ++q) {
    const std::string bit = std::to_string(q);
    program += "measure q[" + bit + "] -> c[" + bit + "];\n";
  }
  const auto circuit = parseQasm<double>(program);
  ASSERT_EQ(circuit.nbQubits(), n);
  const auto histogram = sim::dispatchSampleCounts(circuit, 64, 11);
  std::uint64_t total = 0;
  for (const auto& [outcome, count] : histogram) {
    EXPECT_TRUE(outcome == std::string(n, '0') ||
                outcome == std::string(n, '1'))
        << outcome;
    total += count;
  }
  EXPECT_EQ(total, 64u);
  EXPECT_THROW(circuit.simulate(std::string(n, '0')), InvalidArgumentError);
}

TEST(QasmParse, ErrorCarriesLineNumber) {
  try {
    parseQasm<double>("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];");
    FAIL() << "expected QasmParseError";
  } catch (const QasmParseError& error) {
    EXPECT_EQ(error.line(), 3);
  }
}

/// Round trip: export every representable gate, reparse, compare unitaries.
TEST(QasmRoundTrip, FullGateCatalog) {
  QCircuit<double> circuit(4);
  circuit.push_back(Identity<double>(0));
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(PauliX<double>(1));
  circuit.push_back(PauliY<double>(2));
  circuit.push_back(PauliZ<double>(3));
  circuit.push_back(SGate<double>(0));
  circuit.push_back(SdgGate<double>(1));
  circuit.push_back(TGate<double>(2));
  circuit.push_back(TdgGate<double>(3));
  circuit.push_back(SX<double>(0));
  circuit.push_back(SXdg<double>(1));
  circuit.push_back(Phase<double>(2, 0.3));
  circuit.push_back(RotationX<double>(3, -0.7));
  circuit.push_back(RotationY<double>(0, 1.9));
  circuit.push_back(RotationZ<double>(1, 0.1));
  circuit.push_back(U2<double>(2, 0.4, -0.6));
  circuit.push_back(U3<double>(3, 1.0, 0.2, -0.9));
  circuit.push_back(CX<double>(0, 2));
  circuit.push_back(CY<double>(1, 3));
  circuit.push_back(CZ<double>(2, 0));
  circuit.push_back(CH<double>(3, 1));
  circuit.push_back(CPhase<double>(0, 3, 0.8));
  circuit.push_back(CRotationX<double>(1, 2, -1.2));
  circuit.push_back(CRotationY<double>(2, 3, 0.5));
  circuit.push_back(CRotationZ<double>(3, 0, 2.2));
  circuit.push_back(SWAP<double>(0, 1));
  circuit.push_back(iSWAP<double>(2, 3));
  circuit.push_back(RotationXX<double>(0, 3, 0.4));
  circuit.push_back(RotationYY<double>(1, 2, -0.3));
  circuit.push_back(RotationZZ<double>(0, 1, 1.1));
  circuit.push_back(Toffoli<double>(0, 1, 2));
  circuit.push_back(MCX<double>({0, 1, 2}, 3));

  const auto reparsed = parseQasm<double>(circuit.toQASM());
  EXPECT_EQ(reparsed.nbQubits(), 4);
  qclab::test::expectMatrixNear(reparsed.matrix(), circuit.matrix(), 1e-11);
}

TEST(QasmRoundTrip, ZeroControlStatesPreserveUnitary) {
  QCircuit<double> circuit(3);
  circuit.push_back(CX<double>(0, 1, 0));
  circuit.push_back(MCX<double>({0, 2}, 1, {0, 1}));
  const auto reparsed = parseQasm<double>(circuit.toQASM());
  qclab::test::expectMatrixNear(reparsed.matrix(), circuit.matrix(), 1e-12);
}

TEST(QasmRoundTrip, NestedCircuitsFlattenInQasm) {
  QCircuit<double> sub(2, 1);
  sub.push_back(Hadamard<double>(0));
  sub.push_back(CX<double>(0, 1));
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(QCircuit<double>(sub));
  const auto reparsed = parseQasm<double>(circuit.toQASM());
  qclab::test::expectMatrixNear(reparsed.matrix(), circuit.matrix(), 1e-12);
}

TEST(QasmRoundTrip, MeasurementBasesViaBasisChange) {
  // X/Y measurements export as basis change + Z measurement; reparsing and
  // simulating yields the same outcome probabilities.
  const double h = 1.0 / std::sqrt(2.0);
  const std::vector<std::complex<double>> v = {{h, 0.0}, {0.0, h}};
  QCircuit<double> circuit(1);
  circuit.push_back(Measurement<double>(0, 'y'));
  const auto reparsed = parseQasm<double>(circuit.toQASM());
  const auto a = circuit.simulate(v);
  const auto b = reparsed.simulate(v);
  ASSERT_EQ(a.nbBranches(), b.nbBranches());
  for (std::size_t i = 0; i < a.nbBranches(); ++i) {
    EXPECT_EQ(a.result(i), b.result(i));
    EXPECT_NEAR(a.probability(i), b.probability(i), 1e-12);
  }
}

TEST(QasmRoundTrip, SubnormalAngle) {
  // toQASM prints rz(1.0000000000000464e-310); the reader reads it back.
  QCircuit<double> circuit(1);
  circuit.push_back(RotationZ<double>(0, 1e-310));
  EXPECT_EQ(parseQasm<double>(circuit.toQASM()).toQASM(), circuit.toQASM());
}

class QasmRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QasmRandomRoundTrip, RandomCircuitsSurviveUpToPhase) {
  const auto circuit =
      qclab::test::randomCircuit<double>(4, 30, GetParam());
  const auto reparsed = parseQasm<double>(circuit.toQASM());
  // MatrixGate1 exports via u3, which drops a global phase -> compare
  // action on a random state up to phase.
  random::Rng rng(GetParam() + 77);
  const auto state = qclab::test::randomState<double>(4, rng);
  const auto a = circuit.simulate(state).state(0);
  const auto b = reparsed.simulate(state).state(0);
  EXPECT_TRUE(dense::equalUpToPhase(a, b, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QasmRandomRoundTrip, ::testing::Range(1, 7));

}  // namespace
}  // namespace qclab::io
