#pragma once

/// \file qasm.hpp
/// \brief OpenQASM 2.0 importer: parses a program into a QCircuit.
///
/// The paper's QCLAB exports to OpenQASM (toQASM); this importer closes the
/// loop so exported circuits round-trip, and external QASM circuits can be
/// simulated.  The supported statement set covers everything the library
/// emits: the qelib1 standard gates, measure, reset, and barrier.  Gate
/// definitions, conditionals (`if`), and multiple registers are not
/// supported.

#include <string>
#include <vector>

#include "qclab/io/qasm_lexer.hpp"
#include "qclab/qcircuit.hpp"

namespace qclab::io {

namespace detail {

/// Recursive-descent evaluator for QASM angle expressions:
/// numbers, pi, + - * /, unary minus, parentheses.
class AngleParser {
 public:
  AngleParser(const std::vector<Token>& tokens, std::size_t& pos)
      : tokens_(tokens), pos_(pos) {}

  double parse() { return parseSum(); }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  bool isSymbol(const char* s) const {
    return peek().type == Token::Type::kSymbol && peek().text == s;
  }

  double parseSum() {
    double value = parseProduct();
    while (isSymbol("+") || isSymbol("-")) {
      const bool add = advance().text == "+";
      const double rhs = parseProduct();
      value = add ? value + rhs : value - rhs;
    }
    return value;
  }

  double parseProduct() {
    double value = parseUnary();
    while (isSymbol("*") || isSymbol("/")) {
      const bool mul = advance().text == "*";
      const double rhs = parseUnary();
      if (!mul && rhs == 0.0) {
        throw QasmParseError("division by zero in angle", peek().line);
      }
      value = mul ? value * rhs : value / rhs;
    }
    return value;
  }

  double parseUnary() {
    if (isSymbol("-")) {
      advance();
      return -parseUnary();
    }
    if (isSymbol("+")) {
      advance();
      return parseUnary();
    }
    return parseAtom();
  }

  double parseAtom() {
    const Token& token = peek();
    if (token.type == Token::Type::kNumber) {
      advance();
      return std::stod(token.text);
    }
    if (token.type == Token::Type::kIdentifier && token.text == "pi") {
      advance();
      return M_PI;
    }
    if (isSymbol("(")) {
      advance();
      const double value = parseSum();
      if (!isSymbol(")")) {
        throw QasmParseError("expected ')' in angle expression", peek().line);
      }
      advance();
      return value;
    }
    throw QasmParseError("expected number, pi, or '(' in angle expression",
                         token.line);
  }

  const std::vector<Token>& tokens_;
  std::size_t& pos_;
};

}  // namespace detail

/// Parses an OpenQASM 2.0 program into a circuit.  Throws QasmParseError on
/// malformed or unsupported input.
template <typename T>
QCircuit<T> parseQasm(const std::string& source) {
  const obs::ScopedSpan span("qasm/parse");
  const auto tokens = tokenizeQasm(source);
  std::size_t pos = 0;

  auto peek = [&]() -> const Token& { return tokens[pos]; };
  auto advance = [&]() -> const Token& { return tokens[pos++]; };
  auto expectSymbol = [&](const char* s) {
    if (peek().type != Token::Type::kSymbol || peek().text != s) {
      throw QasmParseError(std::string("expected '") + s + "', got '" +
                               peek().text + "'",
                           peek().line);
    }
    advance();
  };
  auto expectIdentifier = [&]() -> std::string {
    if (peek().type != Token::Type::kIdentifier) {
      throw QasmParseError("expected identifier, got '" + peek().text + "'",
                           peek().line);
    }
    return advance().text;
  };
  auto parseInt = [&]() -> int {
    if (peek().type != Token::Type::kNumber) {
      throw QasmParseError("expected integer, got '" + peek().text + "'",
                           peek().line);
    }
    const Token& token = advance();
    try {
      return std::stoi(token.text);
    } catch (const std::exception&) {
      throw QasmParseError("integer literal '" + token.text +
                               "' is out of range",
                           token.line);
    }
  };

  // Parses "name[index]" and returns the index; the register name must
  // match `regName` once registers are declared.
  std::string qregName;
  std::string cregName;
  int nbQubits = 0;
  auto parseQubit = [&]() -> int {
    const std::string name = expectIdentifier();
    if (name != qregName) {
      throw QasmParseError("unknown quantum register '" + name + "'",
                           peek().line);
    }
    expectSymbol("[");
    const int index = parseInt();
    expectSymbol("]");
    if (index < 0 || index >= nbQubits) {
      throw QasmParseError("qubit index out of range", peek().line);
    }
    return index;
  };

  auto parseAngles = [&](int count) -> std::vector<double> {
    expectSymbol("(");
    std::vector<double> angles;
    for (int i = 0; i < count; ++i) {
      if (i > 0) expectSymbol(",");
      detail::AngleParser parser(tokens, pos);
      angles.push_back(parser.parse());
    }
    expectSymbol(")");
    return angles;
  };

  // Header.
  {
    const std::string keyword = expectIdentifier();
    if (keyword != "OPENQASM") {
      throw QasmParseError("program must start with OPENQASM", peek().line);
    }
    if (peek().type != Token::Type::kNumber) {
      throw QasmParseError("expected version number", peek().line);
    }
    const std::string version = advance().text;
    if (version != "2.0" && version != "2") {
      throw QasmParseError("unsupported OpenQASM version " + version,
                           peek().line);
    }
    expectSymbol(";");
  }

  // Declarations and statements.
  std::vector<std::unique_ptr<QObject<T>>> pending;
  while (peek().type != Token::Type::kEnd) {
    const int line = peek().line;
    const std::string keyword = expectIdentifier();

    if (keyword == "include") {
      if (peek().type != Token::Type::kString) {
        throw QasmParseError("expected include file name", line);
      }
      advance();
      expectSymbol(";");
      continue;
    }
    if (keyword == "qreg") {
      if (!qregName.empty()) {
        throw QasmParseError("multiple quantum registers are not supported",
                             line);
      }
      qregName = expectIdentifier();
      expectSymbol("[");
      nbQubits = parseInt();
      expectSymbol("]");
      expectSymbol(";");
      if (nbQubits < 1) {
        throw QasmParseError("qreg must have at least one qubit", line);
      }
      continue;
    }
    if (keyword == "creg") {
      cregName = expectIdentifier();
      expectSymbol("[");
      parseInt();
      expectSymbol("]");
      expectSymbol(";");
      continue;
    }

    if (qregName.empty()) {
      throw QasmParseError("statement before qreg declaration", line);
    }

    if (keyword == "measure") {
      const int qubit = parseQubit();
      expectSymbol("->");
      const std::string creg = expectIdentifier();
      if (creg != cregName) {
        throw QasmParseError("unknown classical register '" + creg + "'",
                             line);
      }
      expectSymbol("[");
      parseInt();
      expectSymbol("]");
      expectSymbol(";");
      pending.push_back(std::make_unique<Measurement<T>>(qubit));
      continue;
    }
    if (keyword == "reset") {
      const int qubit = parseQubit();
      expectSymbol(";");
      pending.push_back(std::make_unique<Reset<T>>(qubit));
      continue;
    }
    if (keyword == "barrier") {
      std::vector<int> qubits;
      qubits.push_back(parseQubit());
      while (peek().type == Token::Type::kSymbol && peek().text == ",") {
        advance();
        qubits.push_back(parseQubit());
      }
      expectSymbol(";");
      const auto [lo, hi] = std::minmax_element(qubits.begin(), qubits.end());
      pending.push_back(std::make_unique<Barrier<T>>(*lo, *hi));
      continue;
    }

    // Gate statements.
    using namespace qclab::qgates;
    std::vector<double> angles;
    auto needsAngles = [&](const std::string& g) -> int {
      if (g == "p" || g == "u1" || g == "rx" || g == "ry" || g == "rz" ||
          g == "cp" || g == "cu1" || g == "crx" || g == "cry" ||
          g == "crz" || g == "rxx" || g == "ryy" || g == "rzz") {
        return 1;
      }
      if (g == "u2") return 2;
      if (g == "u3" || g == "u" || g == "cu3") return 3;
      return 0;
    };
    const int angleCount = needsAngles(keyword);
    if (angleCount > 0) angles = parseAngles(angleCount);

    std::vector<int> qubits;
    qubits.push_back(parseQubit());
    while (peek().type == Token::Type::kSymbol && peek().text == ",") {
      advance();
      qubits.push_back(parseQubit());
    }
    expectSymbol(";");

    auto requireQubits = [&](std::size_t count) {
      if (qubits.size() != count) {
        throw QasmParseError("gate '" + keyword + "' expects " +
                                 std::to_string(count) + " qubit(s)",
                             line);
      }
    };

    std::unique_ptr<QObject<T>> object;
    const auto angle = [&](std::size_t i) { return static_cast<T>(angles[i]); };
    if (keyword == "id") { requireQubits(1); object = std::make_unique<Identity<T>>(qubits[0]); }
    else if (keyword == "x") { requireQubits(1); object = std::make_unique<PauliX<T>>(qubits[0]); }
    else if (keyword == "y") { requireQubits(1); object = std::make_unique<PauliY<T>>(qubits[0]); }
    else if (keyword == "z") { requireQubits(1); object = std::make_unique<PauliZ<T>>(qubits[0]); }
    else if (keyword == "h") { requireQubits(1); object = std::make_unique<Hadamard<T>>(qubits[0]); }
    else if (keyword == "s") { requireQubits(1); object = std::make_unique<SGate<T>>(qubits[0]); }
    else if (keyword == "sdg") { requireQubits(1); object = std::make_unique<SdgGate<T>>(qubits[0]); }
    else if (keyword == "t") { requireQubits(1); object = std::make_unique<TGate<T>>(qubits[0]); }
    else if (keyword == "tdg") { requireQubits(1); object = std::make_unique<TdgGate<T>>(qubits[0]); }
    else if (keyword == "sx") { requireQubits(1); object = std::make_unique<SX<T>>(qubits[0]); }
    else if (keyword == "sxdg") { requireQubits(1); object = std::make_unique<SXdg<T>>(qubits[0]); }
    else if (keyword == "p" || keyword == "u1") { requireQubits(1); object = std::make_unique<Phase<T>>(qubits[0], angle(0)); }
    else if (keyword == "rx") { requireQubits(1); object = std::make_unique<RotationX<T>>(qubits[0], angle(0)); }
    else if (keyword == "ry") { requireQubits(1); object = std::make_unique<RotationY<T>>(qubits[0], angle(0)); }
    else if (keyword == "rz") { requireQubits(1); object = std::make_unique<RotationZ<T>>(qubits[0], angle(0)); }
    else if (keyword == "u2") { requireQubits(1); object = std::make_unique<U2<T>>(qubits[0], angle(0), angle(1)); }
    else if (keyword == "u3" || keyword == "u") { requireQubits(1); object = std::make_unique<U3<T>>(qubits[0], angle(0), angle(1), angle(2)); }
    else if (keyword == "cx") { requireQubits(2); object = std::make_unique<CX<T>>(qubits[0], qubits[1]); }
    else if (keyword == "cy") { requireQubits(2); object = std::make_unique<CY<T>>(qubits[0], qubits[1]); }
    else if (keyword == "cz") { requireQubits(2); object = std::make_unique<CZ<T>>(qubits[0], qubits[1]); }
    else if (keyword == "ch") { requireQubits(2); object = std::make_unique<CH<T>>(qubits[0], qubits[1]); }
    else if (keyword == "cp" || keyword == "cu1") { requireQubits(2); object = std::make_unique<CPhase<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "crx") { requireQubits(2); object = std::make_unique<CRotationX<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "cry") { requireQubits(2); object = std::make_unique<CRotationY<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "crz") { requireQubits(2); object = std::make_unique<CRotationZ<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "swap") { requireQubits(2); object = std::make_unique<SWAP<T>>(qubits[0], qubits[1]); }
    else if (keyword == "iswap") { requireQubits(2); object = std::make_unique<iSWAP<T>>(qubits[0], qubits[1]); }
    else if (keyword == "iswapdg") { requireQubits(2); object = std::make_unique<iSWAPdg<T>>(qubits[0], qubits[1]); }
    else if (keyword == "rxx") { requireQubits(2); object = std::make_unique<RotationXX<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "ryy") { requireQubits(2); object = std::make_unique<RotationYY<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "rzz") { requireQubits(2); object = std::make_unique<RotationZZ<T>>(qubits[0], qubits[1], angle(0)); }
    else if (keyword == "cu3") { requireQubits(2); object = std::make_unique<CU<T>>(qubits[0], qubits[1], angle(0), angle(1), angle(2)); }
    else if (keyword == "cswap") { requireQubits(3); object = std::make_unique<Fredkin<T>>(qubits[0], qubits[1], qubits[2]); }
    else if (keyword == "ccx") { requireQubits(3); object = std::make_unique<Toffoli<T>>(qubits[0], qubits[1], qubits[2]); }
    else if (keyword == "c3x" || keyword == "c4x") {
      const std::size_t nc = keyword == "c3x" ? 3 : 4;
      requireQubits(nc + 1);
      std::vector<int> controls(qubits.begin(), qubits.end() - 1);
      object = std::make_unique<MCX<T>>(controls, qubits.back());
    }
    else {
      throw QasmParseError("unsupported gate '" + keyword + "'", line);
    }
    pending.push_back(std::move(object));
  }

  if (qregName.empty()) {
    throw QasmParseError("program declares no quantum register",
                         tokens.back().line);
  }
  QCircuit<T> circuit(nbQubits);
  for (auto& object : pending) circuit.push_back(std::move(object));
  return circuit;
}

}  // namespace qclab::io
