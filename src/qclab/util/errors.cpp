#include "qclab/util/errors.hpp"

namespace qclab {

QasmParseError::QasmParseError(const std::string& message, int line)
    : Error("QASM parse error (line " + std::to_string(line) + "): " + message),
      line_(line) {}

namespace util::detail {

void throwQubitRange(int qubit, int nbQubits) {
  throw QubitRangeError("qubit index " + std::to_string(qubit) +
                        " out of range [0, " + std::to_string(nbQubits) +
                        ")");
}

void throwInvalidArgument(const char* message) {
  throw InvalidArgumentError(message);
}

}  // namespace util::detail
}  // namespace qclab
