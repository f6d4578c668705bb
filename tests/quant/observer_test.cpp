#include "quant/observer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/rng.h"

namespace fp8q {
namespace {

TEST(Observer, TracksExactExtremes) {
  Observer obs;
  obs.observe(Tensor({3}, {1.0f, -5.0f, 2.0f}));
  EXPECT_FLOAT_EQ(obs.absmax(), 5.0f);
  EXPECT_FLOAT_EQ(obs.min(), -5.0f);
  EXPECT_FLOAT_EQ(obs.max(), 2.0f);
  EXPECT_EQ(obs.count(), 3);
  obs.observe(Tensor({1}, {10.0f}));
  EXPECT_FLOAT_EQ(obs.absmax(), 10.0f);
  EXPECT_FLOAT_EQ(obs.max(), 10.0f);
}

TEST(Observer, EmptyState) {
  Observer obs;
  EXPECT_TRUE(obs.empty());
  EXPECT_FLOAT_EQ(obs.absmax(), 0.0f);
}

TEST(Observer, IgnoresNan) {
  Observer obs;
  obs.observe(Tensor({2}, {std::nanf(""), 3.0f}));
  EXPECT_EQ(obs.count(), 1);
  EXPECT_FLOAT_EQ(obs.absmax(), 3.0f);
}

TEST(Observer, ResetClears) {
  Observer obs;
  obs.observe(Tensor({2}, {1.0f, 2.0f}));
  obs.reset();
  EXPECT_TRUE(obs.empty());
  EXPECT_FLOAT_EQ(obs.absmax(), 0.0f);
  EXPECT_TRUE(obs.sample().empty());
}

TEST(Observer, ReservoirBoundedAndRepresentative) {
  Observer obs(1000);
  Rng rng(3);
  // Stream far more data than the capacity.
  for (int b = 0; b < 50; ++b) obs.observe(randn(rng, {1000}, 5.0f, 1.0f));
  EXPECT_EQ(obs.count(), 50000);
  EXPECT_EQ(obs.sample().size(), 1000u);
  // Sample mean should be near the stream mean.
  double mean = 0.0;
  for (float v : obs.sample()) mean += v;
  mean /= static_cast<double>(obs.sample().size());
  EXPECT_NEAR(mean, 5.0, 0.15);
}

TEST(Observer, SmallStreamKeptVerbatim) {
  Observer obs(100);
  obs.observe(Tensor({3}, {1.0f, 2.0f, 3.0f}));
  ASSERT_EQ(obs.sample().size(), 3u);
  EXPECT_FLOAT_EQ(obs.sample()[0], 1.0f);
  EXPECT_FLOAT_EQ(obs.sample()[2], 3.0f);
}

TEST(Observer, AbsmaxExactEvenWhenSampled) {
  // The absmax must never be lost to reservoir sampling: plant a single
  // outlier in a long stream.
  Observer obs(64);
  Rng rng(5);
  Tensor t = randn(rng, {10000});
  t[5000] = 99.0f;
  obs.observe(t);
  EXPECT_FLOAT_EQ(obs.absmax(), 99.0f);
}

TEST(Observer, RangeOnlyObserverMatchesTheSamplingOne) {
  // Capacity 0 keeps no sample but the same exact range and count, over
  // NaN-bearing batches whose extremes include both zeros and infinities.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> batches = {
      {nan, nan},
      {0.0f, -0.0f, nan, 0.0f},
      {-0.0f, 3.0f, nan, -2.0f, 0.0f, 1.0f, 5.0f, -0.5f, 0.25f},
      {},
      {nan, -inf, 7.0f, nan},
      {inf, 0.0f, 1e-45f, -1e-45f, nan, 2.0f, 2.0f, -9.0f, 4.0f, 0.0f, -0.0f}};
  Rng rng(11);
  Tensor big = randn(rng, {3000});
  big[17] = nan;
  big[2999] = -0.0f;
  Observer range_only(0);
  Observer sampling;
  auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  auto expect_same = [&](const char* when) {
    EXPECT_EQ(bits(range_only.min()), bits(sampling.min())) << when;
    EXPECT_EQ(bits(range_only.max()), bits(sampling.max())) << when;
    EXPECT_EQ(bits(range_only.absmax()), bits(sampling.absmax())) << when;
    EXPECT_EQ(range_only.count(), sampling.count()) << when;
    EXPECT_EQ(range_only.empty(), sampling.empty()) << when;
  };
  for (const auto& b : batches) {
    range_only.observe(b);
    sampling.observe(b);
    expect_same("after a small batch");
  }
  range_only.observe(big);
  sampling.observe(big);
  expect_same("after a large batch");
  EXPECT_EQ(sampling.count(), 23 + 2999);
  EXPECT_TRUE(range_only.sample().empty());
  EXPECT_FALSE(sampling.sample().empty());
  // The zero-only prefix fixed both extremes at the first zero seen.
  Observer zeros(0);
  zeros.observe(std::vector<float>{nan, -0.0f, 0.0f});
  EXPECT_TRUE(std::signbit(zeros.min()));
  EXPECT_TRUE(std::signbit(zeros.max()));
  EXPECT_FALSE(std::signbit(zeros.absmax()));
}

}  // namespace
}  // namespace fp8q
