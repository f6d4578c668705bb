// Unit tests for FP8 encode/decode/quantize: exact values, rounding,
// special values, saturation.
#include "fp8/cast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "fp8/cast_fast.h"

namespace fp8q {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNan = std::numeric_limits<float>::quiet_NaN();

TEST(Fp8Decode, ZeroCodes) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    EXPECT_EQ(fp8_decode(0x00, kind), 0.0f) << to_string(kind);
    EXPECT_EQ(fp8_decode(0x80, kind), -0.0f) << to_string(kind);
    EXPECT_TRUE(std::signbit(fp8_decode(0x80, kind))) << to_string(kind);
  }
}

TEST(Fp8Decode, KnownE4M3Codes) {
  const auto& spec = format_spec(Fp8Kind::E4M3);
  // 0x01: smallest subnormal 2^-9.
  EXPECT_FLOAT_EQ(fp8_decode(0x01, spec), std::ldexp(1.0f, -9));
  // 0x08: smallest normal 2^-6 (exp field 1, mantissa 0).
  EXPECT_FLOAT_EQ(fp8_decode(0x08, spec), std::ldexp(1.0f, -6));
  // 0x7E: largest finite 448 (exp field 15, mantissa 110).
  EXPECT_FLOAT_EQ(fp8_decode(0x7E, spec), 448.0f);
  // One: exp field == bias (7), mantissa 0 -> code 0b0_0111_000 = 0x38.
  EXPECT_FLOAT_EQ(fp8_decode(0x38, spec), 1.0f);
  EXPECT_FLOAT_EQ(fp8_decode(0xB8, spec), -1.0f);
}

TEST(Fp8Decode, KnownE5M2Codes) {
  const auto& spec = format_spec(Fp8Kind::E5M2);
  // One: exp field 15 -> 0b0_01111_00 = 0x3C.
  EXPECT_FLOAT_EQ(fp8_decode(0x3C, spec), 1.0f);
  // Largest finite: exp field 30, mantissa 11 -> 0b0_11110_11 = 0x7B.
  EXPECT_FLOAT_EQ(fp8_decode(0x7B, spec), 57344.0f);
  // Infinity: 0b0_11111_00 = 0x7C.
  EXPECT_EQ(fp8_decode(0x7C, spec), kInf);
  EXPECT_EQ(fp8_decode(0xFC, spec), -kInf);
}

TEST(Fp8Decode, KnownE3M4Codes) {
  const auto& spec = format_spec(Fp8Kind::E3M4);
  // One: exp field 3 -> 0b0_011_0000 = 0x30.
  EXPECT_FLOAT_EQ(fp8_decode(0x30, spec), 1.0f);
  // Largest finite: exp 7, mantissa 1110 -> 0b0_111_1110 = 0x7E -> 30.
  EXPECT_FLOAT_EQ(fp8_decode(0x7E, spec), 30.0f);
  // Smallest subnormal 2^-6.
  EXPECT_FLOAT_EQ(fp8_decode(0x01, spec), std::ldexp(1.0f, -6));
}

TEST(Fp8NanRules, E5M2HasManyNans) {
  const auto& spec = format_spec(Fp8Kind::E5M2);
  int nan_count = 0;
  for (int c = 0; c < 256; ++c) {
    if (fp8_is_nan(static_cast<std::uint8_t>(c), spec)) ++nan_count;
  }
  EXPECT_EQ(nan_count, 6);  // 3 mantissa payloads x 2 signs
}

TEST(Fp8NanRules, ExtendedFormatsHaveSingleNanPerSign) {
  for (Fp8Kind kind : {Fp8Kind::E4M3, Fp8Kind::E3M4}) {
    const auto& spec = format_spec(kind);
    int nan_count = 0;
    int inf_count = 0;
    for (int c = 0; c < 256; ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      if (fp8_is_nan(code, spec)) ++nan_count;
      if (fp8_is_inf(code, spec)) ++inf_count;
    }
    EXPECT_EQ(nan_count, 2) << to_string(kind);
    EXPECT_EQ(inf_count, 0) << to_string(kind);
    EXPECT_TRUE(fp8_is_nan(0x7F, spec));
    EXPECT_TRUE(fp8_is_nan(0xFF, spec));
  }
}

TEST(Fp8Encode, ExactValuesRoundTrip) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 4.0f, -8.0f}) {
      EXPECT_FLOAT_EQ(fp8_decode(fp8_encode(v, spec), spec), v) << to_string(kind);
    }
    const float maxv = spec.max_value();
    EXPECT_FLOAT_EQ(fp8_decode(fp8_encode(maxv, spec), spec), maxv);
    EXPECT_FLOAT_EQ(fp8_decode(fp8_encode(-maxv, spec), spec), -maxv);
    const float mins = spec.min_subnormal();
    EXPECT_FLOAT_EQ(fp8_decode(fp8_encode(mins, spec), spec), mins);
  }
}

TEST(Fp8Encode, NanEncodesToNan) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    const std::uint8_t code = fp8_encode(kNan, spec);
    EXPECT_TRUE(fp8_is_nan(code, spec)) << to_string(kind);
    EXPECT_TRUE(std::isnan(fp8_decode(code, spec))) << to_string(kind);
    EXPECT_TRUE(std::isnan(fp8_quantize(kNan, spec)));
  }
}

TEST(Fp8Encode, InfinitySaturatesByDefault) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    EXPECT_FLOAT_EQ(fp8_quantize(kInf, spec), spec.max_value()) << to_string(kind);
    EXPECT_FLOAT_EQ(fp8_quantize(-kInf, spec), -spec.max_value()) << to_string(kind);
  }
}

TEST(Fp8Quantize, SaturatesBeyondMax) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    const float maxv = spec.max_value();
    EXPECT_FLOAT_EQ(fp8_quantize(maxv * 4.0f, spec), maxv);
    EXPECT_FLOAT_EQ(fp8_quantize(-maxv * 4.0f, spec), -maxv);
    // Just above max still saturates (rounding must not wrap to NaN).
    EXPECT_FLOAT_EQ(fp8_quantize(std::nextafter(maxv, kInf), spec), maxv);
  }
}

TEST(Fp8Quantize, RoundToNearestEvenTies) {
  // E4M3 around 1.0: grid step is 2^-3 = 0.125.
  // 1.0625 is exactly halfway between 1.0 (even mantissa 000) and 1.125
  // (odd mantissa 001): RNE picks 1.0.
  EXPECT_FLOAT_EQ(fp8_quantize(1.0625f, Fp8Kind::E4M3), 1.0f);
  // 1.1875 is halfway between 1.125 (odd) and 1.25 (even 010): picks 1.25.
  EXPECT_FLOAT_EQ(fp8_quantize(1.1875f, Fp8Kind::E4M3), 1.25f);
  // Non-ties go to nearest.
  EXPECT_FLOAT_EQ(fp8_quantize(1.06f, Fp8Kind::E4M3), 1.0f);
  EXPECT_FLOAT_EQ(fp8_quantize(1.07f, Fp8Kind::E4M3), 1.125f);
}

TEST(Fp8Quantize, UnderflowToZeroAndSubnormals) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    const float mins = spec.min_subnormal();
    // Below half the smallest subnormal rounds to zero.
    EXPECT_EQ(fp8_quantize(mins * 0.49f, spec), 0.0f) << to_string(kind);
    // Above half rounds up to the smallest subnormal.
    EXPECT_FLOAT_EQ(fp8_quantize(mins * 0.51f, spec), mins) << to_string(kind);
    // Exactly half ties to even (zero).
    EXPECT_EQ(fp8_quantize(mins * 0.5f, spec), 0.0f) << to_string(kind);
    // Sign of an underflowed negative is preserved.
    EXPECT_TRUE(std::signbit(fp8_quantize(-mins * 0.1f, spec))) << to_string(kind);
  }
}

TEST(Fp8Quantize, SignedZeroPreserved) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    EXPECT_FALSE(std::signbit(fp8_quantize(0.0f, kind)));
    EXPECT_TRUE(std::signbit(fp8_quantize(-0.0f, kind)));
  }
}

TEST(Fp8Quantize, BinadeBoundaryRoundUp) {
  // Value just under a power of two that rounds up across the binade.
  // E4M3 grid below 2.0 has step 0.125; 1.9688 rounds to 2.0.
  EXPECT_FLOAT_EQ(fp8_quantize(1.97f, Fp8Kind::E4M3), 2.0f);
  // E5M2 grid below 4.0 has step 0.5 in [2,4); 3.9 -> 4.0.
  EXPECT_FLOAT_EQ(fp8_quantize(3.9f, Fp8Kind::E5M2), 4.0f);
}

TEST(Fp8Quantize, ScaledQuantizeMapsRange) {
  // A tensor with absmax 10 scaled into E4M3's full range and back.
  const float scale = format_spec(Fp8Kind::E4M3).max_value() / 10.0f;
  std::vector<float> in = {10.0f, -10.0f, 5.0f, 0.0f, 1e-4f};
  std::vector<float> out(in.size());
  fp8_quantize_scaled_fast(in, out, fast_cast_spec(Fp8Kind::E4M3), scale);
  EXPECT_FLOAT_EQ(out[0], 10.0f);   // maps exactly to max code
  EXPECT_FLOAT_EQ(out[1], -10.0f);
  EXPECT_NEAR(out[2], 5.0f, 5.0f / 16.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(Fp8RepresentableValues, CountsAndEndpoints) {
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& spec = format_spec(kind);
    const auto vals = representable_values(spec);
    // finite codes minus one (+0/-0 collapse).
    EXPECT_EQ(static_cast<int>(vals.size()), spec.finite_code_count() - 1)
        << to_string(kind);
    EXPECT_FLOAT_EQ(vals.front(), -spec.max_value());
    EXPECT_FLOAT_EQ(vals.back(), spec.max_value());
    // Sorted strictly ascending (unique).
    for (size_t i = 1; i < vals.size(); ++i) EXPECT_LT(vals[i - 1], vals[i]);
  }
}

}  // namespace
}  // namespace fp8q
