#include "fp8/int8.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "fp8/cast_tier.h"

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

/// A usable scale, else 1: the fallback for an empty or non-finite range,
/// and for a range so small that dividing it into steps underflows to 0.
float sanitize_scale(float scale) {
  return scale > 0.0f && std::isfinite(scale) ? scale : 1.0f;
}

/// The batch kernel's precondition (int8.h), checked once per span call.
void check_kernel_params(const Int8Params& p) {
  if (!(p.scale > 0.0f) || !std::isfinite(p.scale) || p.qmin < -128 || p.qmin > 0 ||
      p.qmax < 0 || p.qmax > 127 || p.zero_point < p.qmin || p.zero_point > p.qmax) {
    throw std::invalid_argument(
        "int8_quantize: needs a positive finite scale and "
        "-128 <= qmin <= {0, zero_point} <= qmax <= 127");
  }
}

}  // namespace

Int8Params int8_symmetric_params(float absmax) {
  Int8Params p;
  p.qmin = -127;
  p.qmax = 127;
  p.zero_point = 0;
  p.scale = sanitize_scale(absmax / 127.0f);
  return p;
}

Int8Params int8_asymmetric_params(float min_value, float max_value) {
  // The range must include zero so that padding/ReLU zeros are exact.
  min_value = std::min(min_value, 0.0f);
  max_value = std::max(max_value, 0.0f);
  Int8Params p;
  p.qmin = -128;
  p.qmax = 127;
  p.scale = sanitize_scale((max_value - min_value) / 255.0f);
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

namespace {

// ---------------------------------------------------------------------------
// kScalar tier: the reference every other tier is tested bit-equal
// against. int8_encode / int8_decode per element, and the events by the
// documented rules (int8.h) on the unclamped rounded code.
// ---------------------------------------------------------------------------

void int8_scalar_tier(const float* in, float* out, std::size_t n, const Int8Params& p,
                      CastTally* tally) {
  for (std::size_t i = 0; i < n; ++i) {
    const float x = in[i];
    out[i] = int8_decode(int8_encode(x, p), p);
    if (tally == nullptr || std::isnan(x)) continue;
    const std::int32_t code = round_nearest_even(x / p.scale + static_cast<float>(p.zero_point));
    if (code < p.qmin || code > p.qmax) {
      ++tally->saturated;
    } else if (x != 0.0f && out[i] == 0.0f) {
      ++tally->flushed;
    }
  }
  if (tally != nullptr) tally->quantized += n;
}

// ---------------------------------------------------------------------------
// The vector tiers: one branch-free loop that GCC auto-vectorizes (this
// file builds at -O3), at baseline width (kBatched), under AVX2 (kNative)
// and under AVX-512 (kWide; fp8/cast_tier.h). It always counts events,
// into 32-bit lane counters one kTallyChunk at a time, and folds them
// into `tally` only when there is one.
// ---------------------------------------------------------------------------

void int8_vector_tier(const float* in, float* out, std::size_t n, const Int8Params& p,
                      CastTally* tally) {
  const float scale = p.scale;
  const auto zp = static_cast<float>(p.zero_point);
  const auto lo = static_cast<float>(p.qmin);
  const auto hi = static_cast<float>(p.qmax);
  // One code past each end: anything that rounds outside [qmin, qmax]
  // still rounds outside after this clamp, so the saturation test below
  // sees the same verdict as int8_encode's int32 rounding.
  const float wide_lo = lo - 1.0f;
  const float wide_hi = hi + 1.0f;
  // NaN encodes to code 0. -zero_point * scale is a real input that
  // encodes to code 0 too (x / scale + zero_point lands within a few ulp
  // of 0), so NaN lanes take its bits and need no float test of their own.
  const std::uint32_t nan_stand_in = std::bit_cast<std::uint32_t>(-zp * scale);

  // Every lane runs the same straight-line code. Under the default
  // -ftrapping-math the vectorizer gives up on a loop whose float compares
  // feed anything but selects of float values, so NaN is picked out on the
  // bit pattern and both events are tested as integers. The clamped
  // scaled value lies in [-129, 128], well inside the +/-2^22 range where
  // the 1.5 * 2^23 magic add rounds to the nearest integer, ties to even;
  // every other step matches int8_encode / int8_decode operation for
  // operation, so the outputs are bit-identical to the scalar reference.
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
  for (std::size_t begin = 0; begin < n; begin += kTallyChunk) {
    const std::size_t end = n - begin < kTallyChunk ? n : begin + kTallyChunk;
    std::uint32_t saturated = 0;
    std::uint32_t flushed = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t u = std::bit_cast<std::uint32_t>(in[i]);
      const std::uint32_t au = u & 0x7FFFFFFFu;
      const float x = std::bit_cast<float>(au > 0x7F800000u ? nan_stand_in : u);
      float v = x / scale + zp;
      v = v < wide_lo ? wide_lo : v;
      v = v > wide_hi ? wide_hi : v;
      const float k = (v + kRoundMagic) - kRoundMagic;  // RNE to integer
      float r = k < lo ? lo : k;
      r = r > hi ? hi : r;
      const float q = (r - zp) * scale;
      out[i] = q;
      // Saturated: the rounded code fell outside [qmin, qmax]. NaN's
      // stand-in rounds to 0, which never saturates.
      const std::uint32_t sat =
          std::bit_cast<std::uint32_t>(k) != std::bit_cast<std::uint32_t>(r);
      // Flushed: an unsaturated, nonzero, non-NaN input decoded to +/-0.
      const std::uint32_t zero_out = (std::bit_cast<std::uint32_t>(q) & 0x7FFFFFFFu) == 0u;
      const std::uint32_t nonzero_in = au - 1u < 0x7F800000u;
      saturated += sat;
      flushed += (sat ^ 1u) & zero_out & nonzero_in;
    }
    if (tally != nullptr) {
      tally->saturated += saturated;
      tally->flushed += flushed;
    }
  }
  if (tally != nullptr) tally->quantized += n;
}

}  // namespace

void int8_quantize_batch(std::span<const float> in, std::span<float> out, const Int8Params& p,
                         CastTally* tally) {
  const std::size_t n = std::min(in.size(), out.size());
  run_cast_tier([&] { int8_scalar_tier(in.data(), out.data(), n, p, tally); },
                [&] { int8_vector_tier(in.data(), out.data(), n, p, tally); });
}

void int8_quantize(std::span<const float> in, std::span<float> out, const Int8Params& p) {
  check_kernel_params(p);
  // The FP8 span cast's wrapper; the histogram records the unscaled
  // magnitudes.
  quantize_observed(in, out, ObsFormat::kInt8, 1.0f,
                    [&p](std::span<const float> src, std::span<float> dst, CastTally* tally) {
                      int8_quantize_batch(src, dst, p, tally);
                    });
}

}  // namespace fp8q
