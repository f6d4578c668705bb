#include "fp8/int8.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/counters.h"
#include "obs/histogram.h"

namespace fp8q {

namespace {

/// Round half to even, matching the FP8 cast path and typical INT8 kernels.
/// Total over all finite floats: inputs beyond the int32 range clamp to the
/// range bounds first — converting an out-of-range float to an integer is
/// undefined behaviour (UBSan float-cast-overflow), and every caller clamps
/// to [qmin, qmax] afterwards anyway, so the result is unchanged.
std::int32_t round_nearest_even(float v) {
  constexpr float kLo = -2147483648.0f;  // exactly INT32_MIN
  constexpr float kHi = 2147483520.0f;   // largest float < INT32_MAX
  if (v <= kLo) return std::numeric_limits<std::int32_t>::min();
  if (v >= kHi) return std::numeric_limits<std::int32_t>::max();
  const float f = std::floor(v);
  const float frac = v - f;
  auto fi = static_cast<std::int64_t>(f);
  if (frac > 0.5f || (frac == 0.5f && (fi & 1))) ++fi;
  return static_cast<std::int32_t>(fi);
}

}  // namespace

Int8Params int8_symmetric_params(float absmax) {
  Int8Params p;
  p.qmin = -127;
  p.qmax = 127;
  p.zero_point = 0;
  p.scale = (absmax > 0.0f && std::isfinite(absmax)) ? absmax / 127.0f : 1.0f;
  return p;
}

Int8Params int8_asymmetric_params(float min_value, float max_value) {
  // The range must include zero so that padding/ReLU zeros are exact.
  min_value = std::min(min_value, 0.0f);
  max_value = std::max(max_value, 0.0f);
  Int8Params p;
  p.qmin = -128;
  p.qmax = 127;
  const float span = max_value - min_value;
  p.scale = (span > 0.0f && std::isfinite(span)) ? span / 255.0f : 1.0f;
  const float zp = static_cast<float>(p.qmin) - min_value / p.scale;
  p.zero_point = std::clamp(round_nearest_even(zp), p.qmin, p.qmax);
  return p;
}

std::int8_t int8_encode(float x, const Int8Params& p) {
  if (std::isnan(x)) return 0;
  const float scaled = x / p.scale + static_cast<float>(p.zero_point);
  const std::int32_t q = std::clamp(round_nearest_even(scaled), p.qmin, p.qmax);
  return static_cast<std::int8_t>(q);
}

float int8_decode(std::int8_t q, const Int8Params& p) {
  return (static_cast<float>(q) - static_cast<float>(p.zero_point)) * p.scale;
}

float int8_quantize(float x, const Int8Params& p) {
  return int8_decode(int8_encode(x, p), p);
}

void int8_quantize(std::span<const float> in, std::span<float> out, const Int8Params& p) {
  const size_t n = std::min(in.size(), out.size());
  if (histograms_enabled()) {
    // Pre-quant magnitude sweep over the raw inputs, done first because
    // `out` may alias `in`. Per-element classification, so the merged
    // counts do not depend on call granularity.
    LocalHistogram local;
    for (size_t i = 0; i < n; ++i) local.record(std::fabs(static_cast<double>(in[i])));
    hist_merge(ObsFormat::kInt8, local);
  }
  if (!counters_enabled()) {
    for (size_t i = 0; i < n; ++i) out[i] = int8_quantize(in[i], p);
    return;
  }
  // Saturation = rounded value clipped by [qmin, qmax]; flush-to-zero =
  // nonzero input decodes to exactly 0 (NaN inputs also land here by the
  // encode rule). Tallied locally, flushed once per call.
  std::uint64_t saturated = 0;
  std::uint64_t flushed = 0;
  for (size_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float q = int8_quantize(x, p);
    out[i] = q;
    if (!std::isnan(x)) {
      const float scaled = x / p.scale + static_cast<float>(p.zero_point);
      const std::int32_t rounded = round_nearest_even(scaled);
      if (rounded < p.qmin || rounded > p.qmax) {
        ++saturated;
      } else if (q == 0.0f && x != 0.0f) {
        ++flushed;
      }
    }
  }
  counter_add(ObsFormat::kInt8, ObsEvent::kQuantized, static_cast<std::uint64_t>(n));
  counter_add(ObsFormat::kInt8, ObsEvent::kSaturated, saturated);
  counter_add(ObsFormat::kInt8, ObsEvent::kFlushedToZero, flushed);
}

}  // namespace fp8q
