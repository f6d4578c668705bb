#include "fp8/cast.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace fp8q {

namespace {

/// Rounds a non-negative scaled significand to the nearest integer, ties
/// to even. `v` is always < 2^(m+1) + 1 <= 33, so the double arithmetic is
/// exact.
std::uint32_t round_nearest_even(double v) {
  const double f = std::floor(v);
  const double frac = v - f;
  auto fi = static_cast<std::uint32_t>(f);
  if (frac > 0.5 || (frac == 0.5 && (fi & 1u))) ++fi;
  return fi;
}

// Code-point assembly is done in unsigned arithmetic throughout: shifting
// into (or past) the sign bit of a signed int is implementation-defined at
// best, and the 8-bit codes are bit patterns, not quantities.
std::uint8_t max_finite_code(const FormatSpec& spec) {
  const unsigned m = static_cast<unsigned>(spec.man_bits);
  if (spec.family == EncodingFamily::kIeee) {
    const unsigned exp_field = (1u << spec.exp_bits) - 2u;
    const unsigned mant = (1u << m) - 1u;
    return static_cast<std::uint8_t>((exp_field << m) | mant);
  }
  const unsigned exp_field = (1u << spec.exp_bits) - 1u;
  const unsigned mant = (1u << m) - 2u;
  return static_cast<std::uint8_t>((exp_field << m) | mant);
}

}  // namespace

std::uint8_t fp8_nan_code(const FormatSpec& /*spec*/) {
  // Exponent and mantissa fields all ones, sign clear: 0x7F for every
  // 1-e-m split. For E5M2 this is the canonical (largest-payload) NaN; for
  // the extended formats it is the single NaN encoding from Table 1.
  return 0x7F;
}

bool fp8_is_nan(std::uint8_t code, const FormatSpec& spec) {
  const unsigned m = static_cast<unsigned>(spec.man_bits);
  const unsigned exp_field = (code >> m) & ((1u << spec.exp_bits) - 1u);
  const unsigned mant = code & ((1u << m) - 1u);
  if (spec.family == EncodingFamily::kIeee) {
    return exp_field == (1u << spec.exp_bits) - 1u && mant != 0u;
  }
  return (code & 0x7F) == 0x7F;
}

bool fp8_is_inf(std::uint8_t code, const FormatSpec& spec) {
  if (spec.family != EncodingFamily::kIeee) return false;
  const unsigned m = static_cast<unsigned>(spec.man_bits);
  const unsigned exp_field = (code >> m) & ((1u << spec.exp_bits) - 1u);
  const unsigned mant = code & ((1u << m) - 1u);
  return exp_field == (1u << spec.exp_bits) - 1u && mant == 0u;
}

std::uint8_t fp8_encode(float x, const FormatSpec& spec) {
  const int m = spec.man_bits;
  const std::uint8_t sign = std::signbit(x) ? 0x80 : 0x00;

  if (std::isnan(x)) return static_cast<std::uint8_t>(sign | fp8_nan_code(spec));
  if (std::isinf(x)) return static_cast<std::uint8_t>(sign | max_finite_code(spec));

  const double a = std::fabs(static_cast<double>(x));
  if (a == 0.0) return sign;  // +/-0

  // Pick the exponent of the grid the value falls on. Values below the
  // normal range share the subnormal grid at min_unbiased_exp().
  int e = std::max(std::ilogb(a), spec.min_unbiased_exp());
  std::uint32_t k = round_nearest_even(std::ldexp(a, m - e));
  if (k >= (2u << m)) {  // rounded up across a binade boundary
    k >>= 1;
    ++e;
  }
  if (k == 0) return sign;  // rounded to zero

  std::uint8_t code;
  if (k < (1u << m)) {
    // Subnormal: exponent field zero (only reachable at the minimum grid).
    code = static_cast<std::uint8_t>(k);
  } else {
    const int biased = e + spec.bias;
    const int mant = static_cast<int>(k) - (1 << m);
    const int max_field = (spec.family == EncodingFamily::kIeee)
                              ? (1 << spec.exp_bits) - 2
                              : (1 << spec.exp_bits) - 1;
    bool overflow = biased > max_field;
    if (!overflow && spec.family == EncodingFamily::kExtended &&
        biased == max_field && mant == (1 << m) - 1) {
      overflow = true;  // this code point is the NaN encoding
    }
    if (overflow) return static_cast<std::uint8_t>(sign | max_finite_code(spec));
    code = static_cast<std::uint8_t>((static_cast<unsigned>(biased) << m) |
                                     static_cast<unsigned>(mant));
  }
  return static_cast<std::uint8_t>(sign | code);
}

float fp8_decode(std::uint8_t code, const FormatSpec& spec) {
  const int m = spec.man_bits;
  const bool negative = (code & 0x80) != 0;
  const int exp_field =
      static_cast<int>((code >> static_cast<unsigned>(m)) & ((1u << spec.exp_bits) - 1u));
  const int mant = static_cast<int>(code & ((1u << m) - 1u));

  if (fp8_is_nan(code, spec)) return std::numeric_limits<float>::quiet_NaN();
  if (fp8_is_inf(code, spec)) {
    const float inf = std::numeric_limits<float>::infinity();
    return negative ? -inf : inf;
  }

  double value;
  if (exp_field == 0) {
    value = std::ldexp(static_cast<double>(mant), spec.min_unbiased_exp() - m);
  } else {
    value = std::ldexp(static_cast<double>((1 << m) + mant), exp_field - spec.bias - m);
  }
  const auto v = static_cast<float>(value);
  return negative ? -v : v;
}

float fp8_quantize(float x, const FormatSpec& spec) {
  const int m = spec.man_bits;

  if (std::isnan(x)) return x;
  if (std::isinf(x)) return std::copysign(spec.max_value(), x);

  const double a = std::fabs(static_cast<double>(x));
  if (a == 0.0) return x;  // preserve signed zero

  int e = std::max(std::ilogb(a), spec.min_unbiased_exp());
  std::uint32_t k = round_nearest_even(std::ldexp(a, m - e));
  if (k >= (2u << m)) {
    k >>= 1;
    ++e;
  }
  if (k == 0) return std::copysign(0.0f, x);

  auto v = static_cast<float>(std::ldexp(static_cast<double>(k), e - m));
  const float maxv = spec.max_value();
  if (v > maxv) v = maxv;  // saturate
  return std::copysign(v, x);
}

std::vector<float> representable_values(const FormatSpec& spec) {
  std::vector<float> values;
  values.reserve(256);
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    if (fp8_is_nan(code, spec) || fp8_is_inf(code, spec)) continue;
    values.push_back(fp8_decode(code, spec));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace fp8q
