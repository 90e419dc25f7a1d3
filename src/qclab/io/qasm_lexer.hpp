#pragma once

/// \file qasm_lexer.hpp
/// \brief The OpenQASM 2.0 importer's one-pass reader, compiled once.

#include <string>
#include <string_view>
#include <vector>

namespace qclab::io {

/// One OpenQASM token.
struct Token {
  enum class Type {
    kIdentifier,  ///< names and keywords (h, qreg, measure, pi, ...)
    kNumber,      ///< integer or real literal
    kString,      ///< quoted string (include file name)
    kSymbol,      ///< punctuation: ( ) [ ] , ; + - * / ->
    kEnd,         ///< end of input
  };
  Type type = Type::kEnd;
  std::string text;
  int line = 0;  ///< 1-based source line
};

/// Tokenizes OpenQASM 2.0 source.  Comments (// ...) are skipped.  Throws
/// QasmParseError on unexpected characters.  The token list always ends
/// with one kEnd token.
std::vector<Token> tokenizeQasm(const std::string& source);

namespace detail {

/// A token that views the source it was scanned from.
struct Lexeme {
  std::string_view text;
  int line = 1;
  Token::Type type = Token::Type::kEnd;
};

/// Deepest nesting of parentheses and unary signs, together, in an angle.
inline constexpr int kMaxAngleDepth = 256;

/// Reads a program one operation at a time from string_view tokens that
/// are scanned on demand.  Every literal must read whole (not `1.2.3` or
/// `q[1.7]`) and in range.  Errors carry the line their statement starts
/// on.  The source must outlive the reader; the constructor reads the
/// OPENQASM header.
class QasmReader {
 public:
  explicit QasmReader(std::string_view source);
  /// Reads the declarations before the next operation; returns its
  /// keyword, or "" at the end.  Throws if no qreg comes first.
  std::string_view next();
  /// Reads the operands and ';': measure's or reset's qubit, barrier's
  /// lowest and highest, or a gate's `nbAngles` angles (in parentheses)
  /// and `nbQubits` qubits, where 0 qubits marks an unknown gate.
  void readOperands(int nbAngles, int nbQubits);
  int nbQubits() const { return nbQubits_; }  ///< size of the qreg
  const int* qubits() const { return qubits_; }
  const double* angles() const { return angles_; }

 private:
  static constexpr int kMaxQubits = 5;  ///< operands of c4x, the widest
  /// Throws QasmParseError(message) on the line the statement starts on.
  [[noreturn]] void fail(const std::string& message) const;
  [[noreturn]] void failExpected(const std::string& what) const;
  // Inline, and defined in qasm_lexer.cpp, the only file that calls them.
  inline void advance();  ///< scans the next token into token_
  inline bool at(std::string_view symbol) const;
  inline void expect(std::string_view symbol);
  inline std::string_view identifier();
  template <typename V> V number(const char* kind);
  int subscript();  ///< `[ integer ]`
  int qubit();
  double sum(int depth);
  double product(int depth);
  double unary(int depth);  ///< also numbers, pi and ( sum )

  std::string_view source_;
  std::size_t pos_ = 0;  ///< where scanning resumes
  Lexeme token_;         ///< the one token of lookahead
  int line_ = 1;         ///< line the current statement starts on
  std::string_view keyword_, qreg_, creg_;
  int nbQubits_ = 0, nbBits_ = 0;
  int qubits_[kMaxQubits] = {};
  double angles_[3] = {};  ///< u3 and cu3 take three
};

}  // namespace detail
}  // namespace qclab::io
