// Property-based tests on the casting layer: exhaustive code enumeration,
// round-trip identities, monotonicity, idempotence, nearest-value optimality.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fp8/cast.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

class CastProperty : public ::testing::TestWithParam<Fp8Kind> {
 protected:
  const FormatSpec& spec() const { return format_spec(GetParam()); }
};

TEST_P(CastProperty, DecodeEncodeIsIdentityOnAllCodes) {
  const auto& s = spec();
  for (int c = 0; c < 256; ++c) {
    const auto code = static_cast<std::uint8_t>(c);
    const float v = fp8_decode(code, s);
    if (std::isnan(v)) {
      EXPECT_TRUE(fp8_is_nan(fp8_encode(v, s), s));
      continue;
    }
    const std::uint8_t back = fp8_encode(v, s);
    // Casts saturate: E5M2's Inf codes re-encode to +/-max.
    if (fp8_is_inf(code, s)) {
      EXPECT_EQ(fp8_decode(back, s), std::copysign(s.max_value(), v)) << "code=" << c;
      continue;
    }
    EXPECT_EQ(fp8_decode(back, s), v) << "code=" << c;
  }
}

TEST_P(CastProperty, QuantizeEqualsDecodeEncodeOnRandomInputs) {
  const auto& s = spec();
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    // Mix of scales to cover subnormal, normal and overflow regions.
    const float mag = std::ldexp(rng.uniform(0.5f, 2.0f), rng.randint(-20, 20));
    const float x = (rng.uniform01() < 0.5 ? -1.0f : 1.0f) * mag;
    const float q = fp8_quantize(x, s);
    const float rt = fp8_decode(fp8_encode(x, s), s);
    EXPECT_EQ(q, rt) << to_string(GetParam()) << " x=" << x;
  }
}

TEST_P(CastProperty, QuantizeIsIdempotent) {
  const auto& s = spec();
  Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    const float x = rng.normal(0.0f, 4.0f);
    const float q = fp8_quantize(x, s);
    EXPECT_EQ(fp8_quantize(q, s), q);
  }
}

TEST_P(CastProperty, QuantizeIsMonotonic) {
  const auto& s = spec();
  Rng rng(13);
  float prev_x = -s.max_value() * 2.0f;
  float prev_q = fp8_quantize(prev_x, s);
  // Walk an increasing sequence and verify the quantized sequence never
  // decreases.
  for (int i = 0; i < 20000; ++i) {
    const float x = prev_x + rng.uniform(0.0f, s.max_value() / 4000.0f);
    const float q = fp8_quantize(x, s);
    EXPECT_GE(q, prev_q) << "x=" << x;
    prev_x = x;
    prev_q = q;
  }
}

TEST_P(CastProperty, QuantizeIsOddFunction) {
  const auto& s = spec();
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    const float x = rng.normal(0.0f, 8.0f);
    EXPECT_EQ(fp8_quantize(-x, s), -fp8_quantize(x, s));
  }
}

TEST_P(CastProperty, QuantizePicksNearestRepresentable) {
  const auto& s = spec();
  const auto grid = representable_values(s);
  Rng rng(19);
  for (int i = 0; i < 20000; ++i) {
    const float x = rng.uniform(-s.max_value() * 0.999f, s.max_value() * 0.999f);
    const float q = fp8_quantize(x, s);
    // Brute-force nearest on the enumerated grid.
    float best = grid[0];
    double best_d = std::fabs(static_cast<double>(x) - grid[0]);
    for (float g : grid) {
      const double d = std::fabs(static_cast<double>(x) - g);
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
    const double got_d = std::fabs(static_cast<double>(x) - q);
    EXPECT_LE(got_d, best_d + 1e-12) << "x=" << x << " q=" << q << " nearest=" << best;
  }
}

TEST_P(CastProperty, RoundingErrorBoundedByHalfStep) {
  const auto& s = spec();
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    const float x = rng.uniform(-s.max_value(), s.max_value());
    const float q = fp8_quantize(x, s);
    const double a = std::fabs(static_cast<double>(x));
    const int e = std::max(std::ilogb(std::max(a, 1e-45)), s.min_unbiased_exp());
    const double step = std::ldexp(1.0, e - s.man_bits);
    EXPECT_LE(std::fabs(static_cast<double>(x) - q), step * 0.5 + 1e-12) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CastProperty,
                         ::testing::Values(Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

TEST(CastPropertyCustomFormats, GenericEeMmFormatsRoundTrip) {
  // Kuzmin et al. style sweeps: every legal split with >= 1 exponent bit.
  for (int e = 1; e <= 6; ++e) {
    const int m = 7 - e;
    const FormatSpec s = make_format(e, m);
    for (int c = 0; c < 256; ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      const float v = fp8_decode(code, s);
      if (std::isnan(v) || std::isinf(v)) continue;
      EXPECT_EQ(fp8_decode(fp8_encode(v, s), s), v) << "E" << e << "M" << m << " code " << c;
    }
  }
}

}  // namespace
}  // namespace fp8q
