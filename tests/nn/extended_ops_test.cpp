// New operators: SiLU / HardSwish / LeakyReLU activations, GroupNorm,
// channel concatenation.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "metrics/metrics.h"
#include "nn/elementwise.h"
#include "nn/norm.h"
#include "nn/shape_ops.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// One operand for an op's forward(), read in place.
std::array<const Tensor*, 1> single(const Tensor& t) { return {&t}; }

TEST(Silu, ReferencePoints) {
  Tensor x({3}, {0.0f, 1.0f, -1.0f});
  Tensor y = ActivationOp(OpKind::kSilu).forward(single(x));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 1.0f / (1.0f + std::exp(-1.0f)), 1e-6f);
  EXPECT_NEAR(y[2], -1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
}

TEST(HardSwish, PiecewiseRegions) {
  Tensor x({4}, {-4.0f, 0.0f, 1.0f, 4.0f});
  Tensor y = ActivationOp(OpKind::kHardSwish).forward(single(x));
  EXPECT_FLOAT_EQ(y[0], 0.0f);            // clipped low
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f * 4.0f / 6.0f);
  EXPECT_FLOAT_EQ(y[3], 4.0f);            // linear region (relu6 saturated)
}

TEST(LeakyRelu, NegativeSlope) {
  Tensor x({2}, {-10.0f, 10.0f});
  Tensor y = ActivationOp(OpKind::kLeakyRelu).forward(single(x));
  EXPECT_FLOAT_EQ(y[0], -0.1f);
  EXPECT_FLOAT_EQ(y[1], 10.0f);
}

TEST(GroupNorm, NormalizesPerGroupPerSample) {
  // 4 channels, 2 groups: each group of 2 channels normalized together.
  GroupNormOp gn(2, Tensor({4}, 1.0f), Tensor(Shape{4}), 0.0f);
  Tensor x({1, 4, 1, 2}, {1, 3, /*ch1*/ 1, 3, /*ch2*/ 10, 30, /*ch3*/ 10, 30});
  Tensor y = gn.forward(single(x));
  // Group 0 (ch0, ch1): mean 2, std 1 -> values +/-1.
  EXPECT_NEAR(y.at({0, 0, 0, 0}), -1.0f, 1e-4f);
  EXPECT_NEAR(y.at({0, 1, 0, 1}), 1.0f, 1e-4f);
  // Group 1 (ch2, ch3): mean 20, std 10 -> also +/-1: scale invariance.
  EXPECT_NEAR(y.at({0, 2, 0, 0}), -1.0f, 1e-4f);
  EXPECT_NEAR(y.at({0, 3, 0, 1}), 1.0f, 1e-4f);
}

TEST(GroupNorm, GroupsOfOneIsInstanceNorm) {
  GroupNormOp gn(4, Tensor({4}, 1.0f), Tensor(Shape{4}), 0.0f);
  Rng rng(5);
  Tensor x = randn(rng, {2, 4, 3, 3}, 5.0f, 2.0f);
  Tensor y = gn.forward(single(x));
  // Every (sample, channel) plane has ~zero mean and ~unit variance.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t ch = 0; ch < 4; ++ch) {
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t i = 0; i < 3; ++i) {
        for (std::int64_t j = 0; j < 3; ++j) {
          const float v = y.at({b, ch, i, j});
          s += v;
          s2 += v * v;
        }
      }
      EXPECT_NEAR(s / 9.0, 0.0, 1e-4);
      EXPECT_NEAR(s2 / 9.0, 1.0, 1e-3);
    }
  }
}

TEST(GroupNorm, GammaBetaAndValidation) {
  GroupNormOp gn(1, Tensor({2}, 3.0f), Tensor({2}, 7.0f), 0.0f);
  Tensor x({1, 2, 1, 2}, {1, 3, 1, 3});
  Tensor y = gn.forward(single(x));
  EXPECT_NEAR(y[0], -3.0f + 7.0f, 1e-4f);
  EXPECT_THROW(GroupNormOp(3, Tensor({4}, 1.0f), Tensor(Shape{4})), std::invalid_argument);
  EXPECT_THROW(GroupNormOp(0, Tensor({4}, 1.0f), Tensor(Shape{4})), std::invalid_argument);
  Tensor bad({1, 3, 1, 1});
  EXPECT_THROW((void)gn.forward(single(bad)), std::invalid_argument);
}

TEST(GroupNorm, IsExtendedSchemeOp) {
  EXPECT_TRUE(is_extended_op(OpKind::kGroupNorm));
  EXPECT_FALSE(is_compute_op(OpKind::kGroupNorm));
}

TEST(ConcatChannels, LayoutAndShape) {
  Tensor a({2, 1, 1, 2}, {1, 2, 3, 4});
  Tensor b({2, 2, 1, 2}, {10, 20, 30, 40, 50, 60, 70, 80});
  const std::array<const Tensor*, 2> in = {&a, &b};
  Tensor y = ConcatChannelsOp().forward(in);
  ASSERT_EQ(y.shape(), (Shape{2, 3, 1, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 0, 0}), 10.0f);
  EXPECT_FLOAT_EQ(y.at({0, 2, 0, 1}), 40.0f);
  EXPECT_FLOAT_EQ(y.at({1, 0, 0, 0}), 3.0f);
  EXPECT_FLOAT_EQ(y.at({1, 1, 0, 0}), 50.0f);
}

TEST(ConcatChannels, Validation) {
  ConcatChannelsOp cat;
  Tensor a({2, 1, 4});
  Tensor b({3, 1, 4});
  const std::array<const Tensor*, 2> in = {&a, &b};
  EXPECT_THROW((void)cat.forward(in), std::invalid_argument);  // batch mismatch
}

}  // namespace
}  // namespace fp8q
