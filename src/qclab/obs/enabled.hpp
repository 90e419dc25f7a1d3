#pragma once

/// \file enabled.hpp
/// \brief The compile-time switch of the observability layer.
///
/// Every obs class is defined once for both builds; its recording bodies
/// sit in `if constexpr (kEnabled)` branches, so compiling with
/// QCLAB_OBS_DISABLED (CMake: -DQCLAB_OBS_DISABLED=ON) discards them:
/// readers return zero and every exporter still renders a valid file.

namespace qclab::obs {

#ifdef QCLAB_OBS_DISABLED
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;  ///< observability compiled in
#endif

}  // namespace qclab::obs
