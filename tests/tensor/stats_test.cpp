#include "tensor/stats.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace fp8q {
namespace {

TEST(Stats, AbsmaxBasics) {
  std::vector<float> v = {-3.0f, 1.0f, 2.5f};
  EXPECT_FLOAT_EQ(absmax(v), 3.0f);
  EXPECT_FLOAT_EQ(absmax(std::span<const float>{}), 0.0f);
}

TEST(Stats, AbsmaxIgnoresNan) {
  std::vector<float> v = {1.0f, std::numeric_limits<float>::quiet_NaN(), -2.0f};
  EXPECT_FLOAT_EQ(absmax(v), 2.0f);
}

TEST(Stats, MinmaxBasics) {
  std::vector<float> v = {3.0f, -1.0f, 2.0f};
  const auto [lo, hi] = minmax(v);
  EXPECT_FLOAT_EQ(lo, -1.0f);
  EXPECT_FLOAT_EQ(hi, 3.0f);
}

TEST(Stats, MinmaxEmpty) {
  const auto [lo, hi] = minmax(std::span<const float>{});
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 0.0f);
}

TEST(Stats, AbsmaxPerChannelAxis0) {
  // [out=2, in=3] weight: per-output-channel maxima.
  Tensor w({2, 3}, {1, -4, 2, 0.5f, 0.25f, -0.125f});
  const auto m = absmax_per_channel(w, 0);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_FLOAT_EQ(m[0], 4.0f);
  EXPECT_FLOAT_EQ(m[1], 0.5f);
}

TEST(Stats, AbsmaxPerChannelLastAxis) {
  Tensor t({2, 2, 2}, {1, 10, 2, 20, 3, 30, -4, -40});
  const auto m = absmax_per_channel(t, -1);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_FLOAT_EQ(m[0], 4.0f);
  EXPECT_FLOAT_EQ(m[1], 40.0f);
}

TEST(Stats, MinmaxPerChannel) {
  Tensor t({3, 2}, {1, -1, 5, 2, -3, 0});
  const auto mm = minmax_per_channel(t, 1);
  ASSERT_EQ(mm.size(), 2u);
  EXPECT_FLOAT_EQ(mm[0].first, -3.0f);
  EXPECT_FLOAT_EQ(mm[0].second, 5.0f);
  EXPECT_FLOAT_EQ(mm[1].first, -1.0f);
  EXPECT_FLOAT_EQ(mm[1].second, 2.0f);
}

// ---- The vector range folds against the element-order scalar fold -------

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// The scalar fold the statistics are defined by: lo = x < lo ? x : lo,
/// hi = hi < x ? x : hi from the first non-NaN element, NaN skipped.
struct RefRange {
  float lo = 0.0f;
  float hi = 0.0f;
  std::int64_t count = 0;
};

RefRange reference_fold(std::span<const float> v) {
  RefRange r;
  for (const float x : v) {
    if (std::isnan(x)) continue;
    if (r.count++ == 0) {
      r.lo = r.hi = x;
    } else {
      r.lo = x < r.lo ? x : r.lo;
      r.hi = r.hi < x ? x : r.hi;
    }
  }
  return r;
}

float reference_absmax(std::span<const float> v) {
  float m = 0.0f;
  for (const float x : v) {
    if (!std::isnan(x)) m = std::max(m, std::fabs(x));
  }
  return m;
}

void expect_matches_reference(std::span<const float> v, const std::string& what) {
  const RefRange want = reference_fold(v);
  const auto [lo, hi] = minmax(v);
  EXPECT_EQ(bits_of(lo), bits_of(want.lo)) << what;
  EXPECT_EQ(bits_of(hi), bits_of(want.hi)) << what;
  EXPECT_EQ(bits_of(absmax(v)), bits_of(reference_absmax(v))) << what;
  const ValueRange r = value_range(v);
  EXPECT_EQ(bits_of(r.min), bits_of(want.lo)) << what;
  EXPECT_EQ(bits_of(r.max), bits_of(want.hi)) << what;
  EXPECT_EQ(r.count, want.count) << what;
}

TEST(Stats, RangeFoldsMatchTheScalarFoldBitForBit) {
  // Draws from a pool where ties are common: both zeros, NaN, both
  // infinities, a subnormal and FLT_MAX, at lengths across the vector
  // body and its remainder. Which zero a zero extreme is must match.
  const float pool[] = {0.0f,  -0.0f, kNaN,   -kNaN, kInf,  -kInf, 1.0f, -1.0f,
                        2.5f, -3.0f, 1e-45f, -1e-45f, std::numeric_limits<float>::max(),
                        -std::numeric_limits<float>::max()};
  Rng rng(47);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.randint(0, trial < 3000 ? 40 : 600));
    // Restrict some trials to a few pool entries, so all-zero, zero-extreme
    // and all-NaN spans come up often.
    const std::int64_t width = rng.randint(1, static_cast<std::int64_t>(std::size(pool)));
    std::vector<float> v(n);
    for (auto& x : v) x = pool[rng.randint(0, width - 1)];
    expect_matches_reference(v, "trial " + std::to_string(trial));
  }
  for (const std::vector<float>& v : std::vector<std::vector<float>>{
           {0.0f, -0.0f}, {-0.0f, 0.0f}, {kNaN, -0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
           {1.0f, 2.0f, 3.0f, 4.0f, -0.0f, 0.0f, 5.0f, 6.0f, 7.0f},
           {-1.0f, -2.0f, -3.0f, -4.0f, -5.0f, 0.0f, -0.0f, -6.0f, -7.0f},
           {kNaN, kNaN, kNaN, kNaN, kNaN}, {kInf, -kInf, kNaN}}) {
    expect_matches_reference(v, "fixed case");
  }
}

/// Per-element reference of one channel axis: channel c = (i / stride) % C.
std::vector<RefRange> reference_channels(const Tensor& t, int axis) {
  if (axis < 0) axis += t.dim();
  const std::int64_t channels = t.size(axis);
  const std::int64_t stride = t.strides()[static_cast<std::size_t>(axis)];
  std::vector<std::vector<float>> members(static_cast<std::size_t>(channels));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    members[static_cast<std::size_t>((i / stride) % channels)].push_back(t[i]);
  }
  std::vector<RefRange> out;
  for (const auto& m : members) out.push_back(reference_fold(m));
  return out;
}

TEST(Stats, PerChannelFoldsMatchAPerElementReferenceAtEveryAxis) {
  Rng rng(53);
  const float specials[] = {0.0f, -0.0f, kNaN, kInf, -kInf};
  for (const Shape& shape : {Shape{3, 5, 7, 9}, Shape{2, 4, 8, 5}, Shape{1, 1, 1, 13},
                             Shape{2, 0, 3, 4}, Shape{0, 3, 2, 2}, Shape{4, 3, 2, 0}}) {
    Tensor t(shape);
    for (float& x : t.flat()) {
      x = rng.uniform01() < 0.2 ? specials[rng.randint(0, 4)] : rng.normal(0.0f, 2.0f);
    }
    if (t.numel() > 0) {
      // One channel of axis 1 that is all NaN.
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        if ((i / t.strides()[1]) % t.size(1) == 0) t[i] = kNaN;
      }
    }
    for (int axis = -1; axis < t.dim(); ++axis) {
      const auto want = reference_channels(t, axis);
      const auto am = absmax_per_channel(t, axis);
      const auto mm = minmax_per_channel(t, axis);
      ASSERT_EQ(am.size(), want.size());
      ASSERT_EQ(mm.size(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        const float want_abs =
            want[c].count == 0 ? 0.0f : std::max(std::fabs(want[c].lo), std::fabs(want[c].hi));
        EXPECT_EQ(bits_of(am[c]), bits_of(want_abs)) << t.descriptor() << " axis " << axis;
        EXPECT_EQ(bits_of(mm[c].first), bits_of(want[c].lo)) << t.descriptor() << " " << axis;
        EXPECT_EQ(bits_of(mm[c].second), bits_of(want[c].hi)) << t.descriptor() << " " << axis;
      }
    }
  }
}

TEST(Stats, PerChannelBadAxisThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(absmax_per_channel(t, 2), std::invalid_argument);
}

TEST(Stats, SummarizeMoments) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto s = summarize(v);
  EXPECT_FLOAT_EQ(s.min, 1.0f);
  EXPECT_FLOAT_EQ(s.max, 4.0f);
  EXPECT_FLOAT_EQ(s.absmax, 4.0f);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-9);
}

TEST(Stats, SummarizeEmptyIsZero) {
  const auto s = summarize(std::span<const float>{});
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, AbsQuantile) {
  std::vector<float> v;
  for (int i = 0; i <= 100; ++i) v.push_back(static_cast<float>(i));
  EXPECT_NEAR(abs_quantile(v, 0.5), 50.0f, 1.0f);
  EXPECT_NEAR(abs_quantile(v, 0.999), 100.0f, 1.0f);
  EXPECT_NEAR(abs_quantile(v, 0.0), 0.0f, 1.0f);
  EXPECT_EQ(abs_quantile(std::span<const float>{}, 0.5), 0.0f);
}

TEST(Stats, AbsQuantileUsesMagnitude) {
  std::vector<float> v = {-10.0f, 1.0f, 2.0f};
  EXPECT_FLOAT_EQ(abs_quantile(v, 1.0), 10.0f);
}

TEST(Stats, AbsHistogramBucketsCorrectly) {
  std::vector<float> v = {0.1f, 0.9f, 1.1f, -1.9f, 5.0f};
  const auto h = abs_histogram(v, 2, 2.0f);  // buckets [0,1) and [1,2]+overflow
  ASSERT_EQ(h.size(), 2u);
  EXPECT_DOUBLE_EQ(h[0], 2.0);
  EXPECT_DOUBLE_EQ(h[1], 3.0);  // 1.1, 1.9 and the 5.0 overflow
  EXPECT_THROW(abs_histogram(v, 0, 2.0f), std::invalid_argument);
}

TEST(Stats, FractionWithinSigmaGaussian) {
  Rng rng(41);
  Tensor t = randn(rng, {100000});
  EXPECT_NEAR(fraction_within_sigma(t.flat(), 1.0), 0.683, 0.01);
  EXPECT_NEAR(fraction_within_sigma(t.flat(), 3.0), 0.997, 0.005);
}

TEST(Stats, OutliersLowerSigmaCoverageOfGrid) {
  // With outliers injected, far fewer INT8 grid points land inside 3 sigma
  // of the core distribution -- the Figure 1 mechanism. Check the raw stat:
  // absmax grows ~8x while sigma barely moves.
  Rng rng(43);
  Tensor t = randn(rng, {100000}, 0.0f, std::sqrt(0.5f));
  const auto before = summarize(t);
  inject_outliers(t, rng, 0.01, -6.0f, 6.0f);
  const auto after = summarize(t);
  EXPECT_GT(after.absmax / after.stddev, 1.5 * before.absmax / before.stddev);
}

}  // namespace
}  // namespace fp8q
