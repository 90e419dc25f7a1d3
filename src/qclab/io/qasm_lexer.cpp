#include "qclab/io/qasm_lexer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>

#include "qclab/util/errors.hpp"

namespace qclab::io {
namespace {

using Type = Token::Type;

// Byte classes: the "C" locale's isspace, isalpha ('_' too) and isdigit.
enum CharClass : unsigned char {
  kInvalid, kBlank, kNewline, kLetter, kDigit, kDot, kQuote, kPunct, kEnd,
};

constexpr auto kCharClass = [] {
  std::array<CharClass, 256> table{};
  const std::pair<std::string_view, CharClass> sets[] = {
      {" \t\v\f\r", kBlank}, {"\n", kNewline}, {"0123456789", kDigit},
      {"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", kLetter},
      {".", kDot}, {"\"", kQuote}, {"()[],;+-*/", kPunct}};
  for (const auto& [chars, c] : sets) {
    for (const char ch : chars) table[static_cast<unsigned char>(ch)] = c;
  }
  return table;
}();

std::string quoted(std::string_view text) {
  return std::string("'").append(text).append("'");
}

// Scans the token of `text` at `cursor` into `token`, whose line is where
// the scan starts; in place, as a returned copy would be read back across
// the stores that wrote it, and on a local, as char loads alias `cursor`.
void scan(std::string_view text, std::size_t& cursor, detail::Lexeme& token) {
  const std::size_t n = text.size();
  const auto classAt = [&](std::size_t i) {
    return i < n ? kCharClass[static_cast<unsigned char>(text[i])] : kEnd;
  };
  const auto is = [&](std::size_t i, char c) { return i < n && text[i] == c; };
  std::size_t pos = cursor;
  int line = token.line;
  if (token.type == Type::kString) {  // resume on the line the string ends
    line += static_cast<int>(
        std::count(token.text.begin(), token.text.end(), '\n'));
  }
  for (;; ++pos) {  // blanks, newlines and // comments
    if (classAt(pos) == kNewline) {
      ++line;
    } else if (is(pos, '/') && is(pos + 1, '/')) {
      pos = std::min(text.find('\n', pos), n) - 1;
    } else if (classAt(pos) != kBlank) {
      break;
    }
  }
  const std::size_t start = pos;
  Type type = Type::kSymbol;
  switch (classAt(pos++)) {
    case kEnd: type = Type::kEnd, pos = start; break;
    case kPunct: pos += text[start] == '-' && is(pos, '>'); break;
    case kLetter:
      while (classAt(pos) == kLetter || classAt(pos) == kDigit) ++pos;
      type = Type::kIdentifier;
      break;
    case kQuote:
      pos = text.find('"', pos);
      if (pos == text.npos) throw QasmParseError("unterminated string", line);
      type = Type::kString;
      break;
    case kDot:  // starts a number only when a digit follows
    default:
      if (text[start] != '.' || classAt(pos) != kDigit) {
        throw QasmParseError(
            "unexpected character '" + std::string(1, text[start]) + "'", line);
      }
      [[fallthrough]];
    case kDigit:
      while (classAt(pos) == kDigit || classAt(pos) == kDot) ++pos;
      // An exponent only when digits follow the e and its sign.
      std::size_t i = pos + 1 + (is(pos + 1, '+') || is(pos + 1, '-'));
      if ((is(pos, 'e') || is(pos, 'E')) && classAt(i) == kDigit) {
        for (pos = i; classAt(pos) == kDigit;) ++pos;
      }
      type = Type::kNumber;
  }
  const std::size_t quote = type == Type::kString;  // text between quotes
  token.text = text.substr(start + quote, pos - start - quote);
  token.line = line;
  token.type = type;
  cursor = pos + quote;
}

}  // namespace

std::vector<Token> tokenizeQasm(const std::string& source) {
  std::vector<Token> tokens;
  std::size_t pos = 0;
  detail::Lexeme lexeme;
  do {
    scan(source, pos, lexeme);
    tokens.push_back({lexeme.type, std::string(lexeme.text), lexeme.line});
  } while (lexeme.type != Type::kEnd);
  return tokens;
}

namespace detail {

QasmReader::QasmReader(std::string_view source) : source_(source) {
  advance();
  line_ = token_.line;
  if (identifier() != "OPENQASM") fail("program must start with OPENQASM");
  if (token_.type != Type::kNumber) fail("expected version number");
  const std::string_view version = token_.text;
  advance();
  if (version != "2.0" && version != "2") {
    fail("unsupported OpenQASM version " + std::string(version));
  }
  expect(";");
}

std::string_view QasmReader::next() {
  while (token_.type != Type::kEnd) {
    line_ = token_.line;
    keyword_ = identifier();
    if (keyword_ == "include") {
      if (token_.type != Type::kString) fail("expected include file name");
      advance();
    } else if (keyword_ == "qreg") {
      if (!qreg_.empty()) fail("multiple quantum registers are not supported");
      qreg_ = identifier();
      nbQubits_ = subscript();
      expect(";");
      if (nbQubits_ < 1) fail("qreg must have at least one qubit");
      continue;
    } else if (keyword_ == "creg") {
      creg_ = identifier();
      nbBits_ = subscript();
    } else if (qreg_.empty()) {
      fail("statement before qreg declaration");
    } else {
      return keyword_;
    }
    expect(";");
  }
  if (qreg_.empty()) fail("program declares no quantum register");
  return {};
}

void QasmReader::readOperands(int nbAngles, int nbQubits) {
  int count = 1;
  if (keyword_ == "measure") {
    qubits_[0] = qubit();
    expect("->");
    const std::string_view creg = identifier();
    if (creg != creg_) fail("unknown classical register " + quoted(creg));
    if (subscript() >= nbBits_) fail("classical bit index out of range");
  } else if (keyword_ == "reset") {
    qubits_[0] = qubit();
  } else if (keyword_ == "barrier") {
    qubits_[0] = qubits_[1] = qubit();
    for (count = 2; at(",");) {
      advance();
      const int q = qubit();
      qubits_[0] = std::min(qubits_[0], q);
      qubits_[1] = std::max(qubits_[1], q);
    }
  } else {
    for (int i = 0; i < nbAngles; ++i) {
      expect(i == 0 ? "(" : ",");
      angles_[i] = sum(0);
    }
    if (nbAngles > 0) expect(")");
    for (count = 0;; advance()) {
      const int q = qubit();
      if (count < kMaxQubits) qubits_[count] = q;
      count = std::min(count + 1, kMaxQubits + 1);
      if (!at(",")) break;
    }
  }
  expect(";");
  if (nbQubits == 0) fail("unsupported gate " + quoted(keyword_));
  if (count != nbQubits) {
    fail("gate " + quoted(keyword_) + " expects " + std::to_string(nbQubits) +
         " qubit(s)");
  }
}

void QasmReader::fail(const std::string& message) const {
  throw QasmParseError(message, line_);
}
void QasmReader::failExpected(const std::string& what) const {
  fail("expected " + what + ", got " + quoted(token_.text));
}
void QasmReader::advance() { scan(source_, pos_, token_); }
bool QasmReader::at(std::string_view symbol) const {
  return token_.type == Type::kSymbol && token_.text == symbol;
}

void QasmReader::expect(std::string_view symbol) {
  if (!at(symbol)) failExpected(quoted(symbol));
  advance();
}

std::string_view QasmReader::identifier() {
  if (token_.type != Type::kIdentifier) failExpected("identifier");
  const std::string_view name = token_.text;
  advance();
  return name;
}

// The number token, read whole by from_chars, which rounds like std::stod
// (bit for bit) but reads subnormals and reports overflow to 0 or inf.
template <typename V>
V QasmReader::number(const char* kind) {
  V value{};
  const char* const end = token_.text.data() + token_.text.size();
  const auto [stop, error] = std::from_chars(token_.text.data(), end, value);
  if (token_.type != Type::kNumber || stop != end) failExpected(kind);
  if (error != std::errc()) {
    fail(kind + (" literal " + quoted(token_.text)) + " is out of range");
  }
  advance();
  return value;
}

int QasmReader::subscript() {
  expect("[");
  const int value = number<int>("integer");
  expect("]");
  return value;
}

int QasmReader::qubit() {
  const std::string_view name = identifier();
  if (name != qreg_) fail("unknown quantum register " + quoted(name));
  const int index = subscript();
  if (index >= nbQubits_) fail("qubit index out of range");
  return index;
}

// Recursive descent: sum = product {(+|-) product}, product = unary
// {(*|/) unary}, unary = (+|-) unary | number | pi | ( sum ).  `depth`
// counts the parentheses and signs around the operand; unary() bounds it.
double QasmReader::sum(int depth) {
  double value = product(depth);
  for (bool add; (add = at("+")) || at("-");) {
    advance();
    const double rhs = product(depth);
    value = add ? value + rhs : value - rhs;
  }
  return value;
}

double QasmReader::product(int depth) {
  double value = unary(depth);
  for (bool multiply; (multiply = at("*")) || at("/");) {
    advance();
    const double rhs = unary(depth);
    if (!multiply && rhs == 0.0) fail("division by zero in angle");
    value = multiply ? value * rhs : value / rhs;
  }
  return value;
}

double QasmReader::unary(int depth) {
  if (depth > kMaxAngleDepth) fail("angle expression nested too deeply");
  if (const bool negate = at("-"); negate || at("+")) {
    advance();
    const double value = unary(depth + 1);
    return negate ? -value : value;
  }
  if (token_.type == Type::kNumber) return number<double>("number");
  double value = M_PI;
  if (at("(")) {
    advance();
    value = sum(depth + 1);
    if (!at(")")) fail("expected ')' in angle expression");
  } else if (token_.type != Type::kIdentifier || token_.text != "pi") {
    fail("expected number, pi, or '(' in angle expression");
  }
  advance();
  return value;
}

}  // namespace detail
}  // namespace qclab::io
