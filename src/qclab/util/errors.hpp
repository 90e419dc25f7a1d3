#pragma once

/// \file errors.hpp
/// \brief Exception types and checking helpers used across the library.

#include <stdexcept>
#include <string>

namespace qclab {

/// Base class for all qclab errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a qubit index is out of range for the circuit/register.
class QubitRangeError : public Error {
 public:
  using Error::Error;
};

/// Thrown when an argument is structurally invalid (dimension mismatch,
/// duplicate qubits, non-unitary matrix, malformed bitstring, ...).
class InvalidArgumentError : public Error {
 public:
  using Error::Error;
};

/// Thrown when a gate (or measurement basis) is outside the set a
/// simulation engine supports — e.g. a non-Clifford gate handed to the
/// stabilizer tableau.  Derives from InvalidArgumentError so callers that
/// treat "bad gate for this engine" as an argument error keep working;
/// the dispatch layer catches this type specifically to fall back to the
/// statevector path.
class UnsupportedGateError : public InvalidArgumentError {
 public:
  using InvalidArgumentError::InvalidArgumentError;
};

/// Thrown by the OpenQASM parser on malformed input.
class QasmParseError : public Error {
 public:
  QasmParseError(const std::string& message, int line);
  /// 1-based source line the error was detected on.
  int line() const noexcept { return line_; }

 private:
  int line_;
};

namespace util {

namespace detail {

/// Out-of-line throw paths of the checks below, so a passing check costs
/// one compare and never builds the message.
[[noreturn]] void throwQubitRange(int qubit, int nbQubits);
[[noreturn]] void throwInvalidArgument(const char* message);

}  // namespace detail

/// Throws QubitRangeError unless `0 <= qubit < nbQubits`.
inline void checkQubit(int qubit, int nbQubits) {
  if (qubit < 0 || qubit >= nbQubits) [[unlikely]] {
    detail::throwQubitRange(qubit, nbQubits);
  }
}

/// Throws InvalidArgumentError with `message` unless `condition` holds.
/// A string literal binds here, so no std::string is built when the
/// check passes.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] detail::throwInvalidArgument(message);
}

/// require() for a message that is already a std::string.
inline void require(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] detail::throwInvalidArgument(message.c_str());
}

}  // namespace util
}  // namespace qclab
