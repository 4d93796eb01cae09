// Small helpers shared by the benchmark's files: clocks and order
// statistics.

#ifndef SERVEBENCH_COMMON_H_
#define SERVEBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// order statistics; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Samples strictly above the q-quantile: the tail a percentile rests on.
inline size_t SamplesBeyond(size_t n, double q) {
  return n - std::min(n, static_cast<size_t>(std::ceil(q * static_cast<double>(n))));
}

}  // namespace servebench

#endif  // SERVEBENCH_COMMON_H_
