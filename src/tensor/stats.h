// Tensor statistics used by calibration observers, distribution taxonomy
// (paper Figure 3) and the experiment harnesses.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace fp8q {

// The range statistics below (absmax, minmax, value_range and their
// per-channel forms) return the bits of the element-order scalar fold --
// lo = x < lo ? x : lo, hi = hi < x ? x : hi, NaN skipped, a tie keeping
// the earlier element, so a zero extreme is the first zero's sign -- from
// branch-free 16-byte vector loops.

/// Largest absolute value; 0 for empty input. NaNs are ignored.
[[nodiscard]] float absmax(std::span<const float> v);
[[nodiscard]] inline float absmax(const Tensor& t) { return absmax(t.flat()); }

/// (min, max); (0, 0) for empty input. NaNs are ignored.
[[nodiscard]] std::pair<float, float> minmax(std::span<const float> v);
[[nodiscard]] inline std::pair<float, float> minmax(const Tensor& t) {
  return minmax(t.flat());
}

/// minmax and the number of non-NaN values, in one pass; all zero when
/// there is no non-NaN value.
struct ValueRange {
  float min = 0.0f;
  float max = 0.0f;
  std::int64_t count = 0;
};
[[nodiscard]] ValueRange value_range(std::span<const float> v);

/// Per-channel absmax along `axis` (e.g. axis 0 of a [out, in] weight for
/// the paper's per-channel weight scaling).
[[nodiscard]] std::vector<float> absmax_per_channel(const Tensor& t, int axis);

/// Per-channel (min, max) along `axis`.
[[nodiscard]] std::vector<std::pair<float, float>> minmax_per_channel(const Tensor& t,
                                                                      int axis);

/// Moment summary for distribution classification.
struct SummaryStats {
  float min = 0.0f;
  float max = 0.0f;
  float absmax = 0.0f;
  double mean = 0.0;
  double stddev = 0.0;
  double kurtosis = 0.0;  ///< excess kurtosis; >> 0 means outlier-heavy
};

[[nodiscard]] SummaryStats summarize(std::span<const float> v);
[[nodiscard]] inline SummaryStats summarize(const Tensor& t) { return summarize(t.flat()); }

/// `q`-quantile of |v| (q in [0,1]) via sorting; used by the percentile
/// calibrator. Returns 0 for empty input.
[[nodiscard]] float abs_quantile(std::span<const float> v, double q);

/// Histogram of |v| over [0, hi] with `bins` equal-width buckets; values
/// beyond hi land in the last bucket. Used by the KL calibrator.
[[nodiscard]] std::vector<double> abs_histogram(std::span<const float> v, int bins, float hi);

/// Fraction of |v| that falls within k standard deviations of the mean —
/// the "3-sigma region" coverage analysis from paper section 2.
[[nodiscard]] double fraction_within_sigma(std::span<const float> v, double k);

}  // namespace fp8q
