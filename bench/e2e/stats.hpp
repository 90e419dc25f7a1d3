#pragma once

/// \file stats.hpp
/// \brief Order statistics shared by the run and compare modes of
/// qclab_e2e.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace qclab::e2e {

/// Quantile q in (0, 1) of `values` by the "exclusive" rule: position
/// q * (n + 1) between 1-based ranks, linear inter- or extrapolation from
/// the nearest interior pair — exactly what Python's
/// statistics.quantiles computes by default, so spreads reported here and
/// by external scripts agree.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values.front();
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() + 1);
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(position), 1, values.size() - 1);
  const double fraction = position - static_cast<double>(rank);
  return values[rank - 1] + fraction * (values[rank] - values[rank - 1]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

}  // namespace qclab::e2e
