// The fast bit-twiddled cast must agree with the reference cast everywhere.
#include "fp8/cast_fast.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/cpu_dispatch.h"
#include "fp8/cast.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

// Only fast_cast_spec() may build a FastCastSpec: the batch kernel is
// verified on the paper's three formats alone, so a custom layout must
// not reach it.
static_assert(!std::is_constructible_v<FastCastSpec, const FormatSpec&>);

// Every case runs at every IsaTier (core/cpu_dispatch.h): the scalar-path
// cases are tier-independent, and the batch cases check the dispatched
// kernel. Without AVX2, kNative runs the batched tier.
class FastCast : public ::testing::TestWithParam<std::tuple<Fp8Kind, IsaTier>> {
 protected:
  void SetUp() override { set_isa_tier(tier()); }
  void TearDown() override { reset_isa_tier(); }

  Fp8Kind kind() const { return std::get<0>(GetParam()); }
  IsaTier tier() const { return std::get<1>(GetParam()); }
  const FormatSpec& spec() const { return format_spec(kind()); }
  const FastCastSpec& fast() const { return fast_cast_spec(kind()); }

  void expect_match(float x) const {
    const float ref = fp8_quantize(x, spec());
    const float got = fp8_quantize_fast(x, fast());
    if (std::isnan(ref)) {
      EXPECT_TRUE(std::isnan(got)) << "x=" << x;
    } else {
      EXPECT_EQ(ref, got) << "x=" << x;
      EXPECT_EQ(std::signbit(ref), std::signbit(got)) << "x=" << x;
    }
  }
};

TEST_P(FastCast, MatchesReferenceOnGridAndMidpoints) {
  const auto values = representable_values(spec());
  for (size_t i = 0; i < values.size(); ++i) {
    expect_match(values[i]);
    if (i + 1 < values.size()) {
      const float mid = values[i] + (values[i + 1] - values[i]) / 2.0f;
      expect_match(mid);
      expect_match(std::nextafter(mid, values[i]));
      expect_match(std::nextafter(mid, values[i + 1]));
    }
  }
}

TEST_P(FastCast, MatchesReferenceOnSpecialValues) {
  const float max = spec().max_value();
  const float sub = spec().min_subnormal();
  for (float x : {0.0f, -0.0f, max, -max, std::nextafter(max, 1e30f), 2.0f * max,
                  sub, -sub, sub / 2.0f, std::nextafter(sub / 2.0f, 1.0f),
                  std::nextafter(sub / 2.0f, 0.0f), sub / 4.0f,
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::denorm_min(),
                  std::numeric_limits<float>::min()}) {
    expect_match(x);
  }
}

TEST_P(FastCast, MatchesReferenceOnRandomSweep) {
  Rng rng(2025);
  for (int i = 0; i < 300000; ++i) {
    const float mag = std::ldexp(rng.uniform(0.5f, 2.0f), static_cast<int>(rng.randint(-30, 25)));
    const float x = (rng.uniform01() < 0.5 ? -1.0f : 1.0f) * mag;
    expect_match(x);
  }
}

TEST_P(FastCast, MatchesReferenceOnRandomBitPatterns) {
  Rng rng(31337);
  for (int i = 0; i < 300000; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng.next());
    float x;
    static_assert(sizeof x == sizeof bits);
    std::memcpy(&x, &bits, sizeof x);
    if (std::isnan(x)) continue;  // NaN payloads compared separately
    expect_match(x);
  }
}

TEST_P(FastCast, ScaledVectorMatchesScalarReference) {
  Rng rng(99);
  std::vector<float> in(4096);
  for (auto& v : in) v = rng.normal(0.0f, 5.0f);
  std::vector<float> out(in.size());
  const float scale = spec().max_value() / 17.0f;
  fp8_quantize_scaled_fast(in, out, fast(), scale);
  // Compare against the scalar reference with the same
  // multiply-by-reciprocal dequantization.
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], fp8_quantize(in[i] * scale, spec()) * inv) << i;
  }
}

// --- Batched kernel (fp8_quantize_batch) ----------------------------------
//
// Contract: out[i] is bit-identical to the scalar composition
// fp8_quantize(in[i] * scale) * (1 / scale), NaN payloads included (the
// batch kernel passes the scaled NaN bits through; the reference cast
// returns the same bits because quantization keeps NaN mantissas).

/// Every input worth testing: the full code grid, rounding midpoints and
/// their neighbors, both signs, and the special values.
std::vector<float> exhaustive_inputs(const FormatSpec& spec) {
  std::vector<float> in;
  const auto values = representable_values(spec);
  for (size_t i = 0; i < values.size(); ++i) {
    in.push_back(values[i]);
    in.push_back(-values[i]);
    if (i + 1 < values.size()) {
      const float mid = values[i] + (values[i + 1] - values[i]) / 2.0f;
      for (float m : {mid, std::nextafter(mid, values[i]), std::nextafter(mid, values[i + 1])}) {
        in.push_back(m);
        in.push_back(-m);
      }
    }
  }
  const float max = spec.max_value();
  const float sub = spec.min_subnormal();
  for (float x : {0.0f, -0.0f, std::nextafter(max, 1e30f), 2.0f * max, -2.0f * max,
                  sub / 2.0f, -sub / 2.0f, std::nextafter(sub / 2.0f, 0.0f), sub / 4.0f,
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::denorm_min(),
                  std::numeric_limits<float>::min()}) {
    in.push_back(x);
  }
  return in;
}

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST_P(FastCast, BatchMatchesScalarReferenceExhaustively) {
  const std::vector<float> in = exhaustive_inputs(spec());
  std::vector<float> out(in.size());
  // Scales spanning identity, power-of-two, the calibration-typical band,
  // and extreme magnitudes that push inputs into overflow/underflow.
  for (float scale : {1.0f, 0.0078125f, 448.0f, 3.7f, 1e-30f, 1e30f}) {
    fp8_quantize_batch(in, out, fast(), scale);
    const float inv = 1.0f / scale;
    for (size_t i = 0; i < in.size(); ++i) {
      const float ref = fp8_quantize(in[i] * scale, spec()) * inv;
      if (std::isnan(ref)) {
        EXPECT_TRUE(std::isnan(out[i])) << "i=" << i << " scale=" << scale;
      } else {
        EXPECT_EQ(bits_of(ref), bits_of(out[i]))
            << "x=" << in[i] << " scale=" << scale << " ref=" << ref
            << " got=" << out[i];
      }
    }
  }
}

TEST_P(FastCast, BatchAliasingInPlaceMatchesOutOfPlace) {
  const std::vector<float> in = exhaustive_inputs(spec());
  std::vector<float> out(in.size());
  std::vector<float> inplace = in;
  const float scale = 2.5f;
  fp8_quantize_batch(in, out, fast(), scale);
  fp8_quantize_batch(inplace, inplace, fast(), scale);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits_of(out[i]), bits_of(inplace[i])) << i;
  }
}

TEST_P(FastCast, BatchTallyCountsEvents) {
  const float max = spec().max_value();
  const float sub = spec().min_subnormal();
  // quantized = every element; saturated = the three finite-or-Inf inputs
  // beyond max; flushed = the one nonzero input below half the smallest
  // subnormal. Zero and NaN count in neither bucket.
  const std::vector<float> in = {0.0f,
                                 1.0f,
                                 2.0f * max,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 sub / 4.0f,
                                 std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> out(in.size());
  CastTally tally;
  fp8_quantize_batch(in, out, fast(), 1.0f, &tally);
  EXPECT_EQ(tally.quantized, in.size());
  EXPECT_EQ(tally.saturated, 3u);
  EXPECT_EQ(tally.flushed, 1u);
}

TEST_P(FastCast, BatchTallyDoesNotPerturbOutputs) {
  Rng rng(777);
  std::vector<float> in(2048);
  for (auto& v : in) v = rng.normal(0.0f, 10.0f);
  std::vector<float> plain(in.size());
  std::vector<float> counted(in.size());
  CastTally tally;
  fp8_quantize_batch(in, plain, fast(), 0.37f);
  fp8_quantize_batch(in, counted, fast(), 0.37f, &tally);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(bits_of(plain[i]), bits_of(counted[i])) << i;
  }
  EXPECT_EQ(tally.quantized, in.size());
}

TEST_P(FastCast, ScaledFastSanitizesNonFiniteScales) {
  Rng rng(4242);
  std::vector<float> in(512);
  for (auto& v : in) v = rng.normal(0.0f, 3.0f);
  std::vector<float> unit(in.size());
  fp8_quantize_scaled_fast(in, unit, fast(), 1.0f);
  // Zero, negative, Inf and NaN scales all fall back to the identity scale.
  for (float bad : {0.0f, -1.0f, std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<float> out(in.size());
    fp8_quantize_scaled_fast(in, out, fast(), bad);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(bits_of(unit[i]), bits_of(out[i])) << "scale=" << bad << " i=" << i;
    }
  }
}

bool same_tally(const CastTally& a, const CastTally& b) {
  return a.quantized == b.quantized && a.saturated == b.saturated && a.flushed == b.flushed;
}

TEST_P(FastCast, EveryTierMatchesTheScalarTierOnShortSpans) {
  // Spans of 0-17 elements from unaligned starts across every input
  // class: the vector tiers' loop remainders and the counted and uncounted
  // loops must give the scalar tier's bits and tally, in and out of place.
  const std::vector<float> in = exhaustive_inputs(spec());
  for (float scale : {1.0f, 3.7f, 1e30f}) {
    for (std::size_t len = 0; len <= 17; ++len) {
      for (std::size_t start = 0; start + len <= in.size(); start += 61) {
        const auto src = std::span<const float>(in).subspan(start, len);
        set_isa_tier(IsaTier::kScalar);
        std::vector<float> want(len);
        CastTally want_tally;
        fp8_quantize_batch(src, want, fast(), scale, &want_tally);

        set_isa_tier(tier());
        std::vector<float> plain(len);
        std::vector<float> counted(len);
        std::vector<float> inplace(src.begin(), src.end());
        CastTally tally;
        CastTally inplace_tally;
        fp8_quantize_batch(src, plain, fast(), scale);
        fp8_quantize_batch(src, counted, fast(), scale, &tally);
        fp8_quantize_batch(inplace, inplace, fast(), scale, &inplace_tally);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(bits_of(plain[i]), bits_of(want[i])) << "start " << start << " i " << i;
          ASSERT_EQ(bits_of(counted[i]), bits_of(want[i])) << "start " << start << " i " << i;
          ASSERT_EQ(bits_of(inplace[i]), bits_of(want[i])) << "start " << start << " i " << i;
        }
        ASSERT_TRUE(same_tally(tally, want_tally)) << "start " << start << " len " << len;
        ASSERT_TRUE(same_tally(inplace_tally, want_tally)) << "start " << start;
        ASSERT_EQ(want_tally.quantized, len);
      }
    }
  }
}

TEST_P(FastCast, EveryTierMatchesTheScalarTierOnALongSpan) {
  // The whole input class list at once, so the vector loop body (not only
  // its remainder) runs over the specials, ties and NaN payloads.
  const std::vector<float> in = exhaustive_inputs(spec());
  set_isa_tier(IsaTier::kScalar);
  std::vector<float> want(in.size());
  CastTally want_tally;
  fp8_quantize_batch(in, want, fast(), 448.0f, &want_tally);
  set_isa_tier(tier());
  std::vector<float> got(in.size());
  CastTally tally;
  fp8_quantize_batch(in, got, fast(), 448.0f, &tally);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << "x bits " << bits_of(in[i]);
  }
  EXPECT_TRUE(same_tally(tally, want_tally));
  EXPECT_GT(want_tally.saturated, 0u);
  EXPECT_GT(want_tally.flushed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAndTiers, FastCast,
    ::testing::Combine(::testing::Values(Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4),
                       ::testing::Values(IsaTier::kScalar, IsaTier::kBatched, IsaTier::kNative)),
    [](const auto& suite_info) {
      return std::string(to_string(std::get<0>(suite_info.param))) + "_" +
             to_string(std::get<1>(suite_info.param));
    });

}  // namespace
}  // namespace fp8q
