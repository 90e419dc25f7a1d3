#pragma once

/// \file dispatch_mode.hpp
/// \brief Routing knobs of the adaptive multi-backend dispatcher.
///
/// Kept in its own dependency-free header (like kernel_path.hpp) so that
/// SimulateOptions (qcircuit.hpp) and the observability layer can name the
/// routes without pulling in the dispatch engine itself
/// (sim/dispatch.hpp).

#include <cstdlib>

namespace qclab::sim {

/// Which simulation engine QCircuit::simulate routes a circuit to.
enum class DispatchMode : int {
  kStatevector = 0,  ///< force the statevector pipeline (the default)
  kStabilizer,       ///< force the CHP tableau for the Clifford prefix,
                     ///< converting to a statevector at the first
                     ///< non-Clifford gate
  kAuto,             ///< analyze the circuit and pick the cheapest
                     ///< capable engine
};

/// How a dispatched execution was actually routed (obs counters).
enum class DispatchRoute : int {
  kStatevector = 0,  ///< whole circuit ran on the statevector pipeline
  kStabilizer,       ///< whole circuit ran on the tableau
  kHybrid,           ///< tableau prefix, converted, statevector suffix
};

/// Number of enumerators in DispatchRoute (for counter arrays).
inline constexpr int kDispatchRouteCount = 3;

/// Stable short name of a dispatch route.
inline const char* dispatchRouteName(DispatchRoute route) noexcept {
  switch (route) {
    case DispatchRoute::kStatevector: return "statevector";
    case DispatchRoute::kStabilizer:  return "stabilizer";
    case DispatchRoute::kHybrid:      return "hybrid";
  }
  return "unknown";
}

/// Tuning knobs of the auto router (SimulateOptions::dispatchOptions).
struct DispatchOptions {
  /// Auto mode only routes through the tableau when the Clifford prefix
  /// has at least this many gates/measurements/resets — shorter prefixes
  /// are not worth building a 2n x (2n+1) tableau for.
  int minCliffordPrefixOps = 4;
};

/// Resolves the effective dispatch mode: the QCLAB_DISPATCH environment
/// variable ("auto" / "statevector" / "stabilizer") overrides the
/// requested mode (mirroring QCLAB_SIMD_LEVEL); unknown values are
/// ignored.
inline DispatchMode resolveDispatchMode(DispatchMode requested) noexcept {
  const char* env = std::getenv("QCLAB_DISPATCH");
  if (env == nullptr) return requested;
  const auto matches = [env](const char* name) noexcept {
    const char* e = env;
    for (; *e != '\0' && *name != '\0'; ++e, ++name) {
      if (*e != *name) return false;
    }
    return *e == '\0' && *name == '\0';
  };
  if (matches("auto")) return DispatchMode::kAuto;
  if (matches("statevector")) return DispatchMode::kStatevector;
  if (matches("stabilizer")) return DispatchMode::kStabilizer;
  return requested;
}

}  // namespace qclab::sim
