// Tensor-level fake quantization: weight / activation parameter resolution
// and application, per-tensor and per-channel.
#include "quant/quantizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "fp8/cast.h"
#include "metrics/metrics.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace fp8q {
namespace {

TEST(WeightParams, PerChannelScalesUseFullEncodingRange) {
  // Two output channels with very different ranges.
  Tensor w({2, 2}, {0.01f, -0.02f, 100.0f, 50.0f});
  const auto p = make_weight_params(w, DType::kE4M3);
  ASSERT_EQ(p.channel_scales.size(), 2u);
  EXPECT_FLOAT_EQ(p.channel_scales[0], 448.0f / 0.02f);
  EXPECT_FLOAT_EQ(p.channel_scales[1], 448.0f / 100.0f);
  EXPECT_EQ(p.granularity, Granularity::kPerChannel);
}

TEST(WeightParams, PerChannelBeatsPerTensorOnSpreadWeights) {
  // Paper section 3.1: per-channel scaling reduces rounding error when
  // channel ranges differ widely.
  Rng rng(3);
  Tensor w = randn(rng, {8, 64});
  // Scale each output channel differently (x1 .. x128).
  for (std::int64_t o = 0; o < 8; ++o) {
    const float gain = std::ldexp(1.0f, static_cast<int>(o));
    for (std::int64_t i = 0; i < 64; ++i) w.at({o, i}) *= gain;
  }
  const Tensor per_ch =
      apply_quant(w, make_weight_params(w, DType::kE4M3, Granularity::kPerChannel));
  const Tensor per_t =
      apply_quant(w, make_weight_params(w, DType::kE4M3, Granularity::kPerTensor));
  EXPECT_LT(mse(w, per_ch), mse(w, per_t));
}

TEST(WeightParams, ZeroChannelGetsNeutralScale) {
  Tensor w({2, 2}, {0.0f, 0.0f, 1.0f, -1.0f});
  const auto p = make_weight_params(w, DType::kE4M3);
  EXPECT_FLOAT_EQ(p.channel_scales[0], 1.0f);
  const Tensor q = apply_quant(w, p);
  EXPECT_FLOAT_EQ(q[0], 0.0f);
  EXPECT_FLOAT_EQ(q[2], 1.0f);
}

TEST(WeightParams, Int8PerChannel) {
  Tensor w({2, 2}, {1.0f, -2.0f, 0.5f, 0.25f});
  const auto p = make_weight_params(w, DType::kINT8);
  ASSERT_EQ(p.channel_int8.size(), 2u);
  EXPECT_FLOAT_EQ(p.channel_int8[0].scale, 2.0f / 127.0f);
  EXPECT_FLOAT_EQ(p.channel_int8[1].scale, 0.5f / 127.0f);
  const Tensor q = apply_quant(w, p);
  EXPECT_NEAR(q[0], 1.0f, 0.01f);
  EXPECT_FLOAT_EQ(q[1], -2.0f);  // channel absmax is exact
}

TEST(WeightParams, PerChannelIsPerGroupAtTheChannelStride) {
  // One group per channel gives the per-channel parameters, each channel's
  // absmax skipping NaN, for FP8 and for INT8.
  Rng rng(17);
  Tensor w = randn(rng, {4, 3, 5});
  w.at({2, 1, 3}) = std::nanf("");
  const auto maxima = absmax_per_channel(w, 0);
  ASSERT_TRUE(std::isfinite(maxima[2]));
  for (const DType dtype : {DType::kE4M3, DType::kINT8}) {
    const auto channel = make_weight_params(w, dtype);
    const auto group = make_group_weight_params(w, dtype, 15);
    EXPECT_EQ(channel.channel_scales, group.channel_scales);
    ASSERT_EQ(channel.channel_int8.size(), group.channel_int8.size());
    for (std::size_t c = 0; c < channel.channel_int8.size(); ++c) {
      EXPECT_EQ(channel.channel_int8[c].scale, group.channel_int8[c].scale) << c;
      EXPECT_EQ(channel.channel_int8[c].zero_point, group.channel_int8[c].zero_point) << c;
    }
    // ...and equal what the axis-0 channel maxima give.
    if (dtype == DType::kE4M3) {
      ASSERT_EQ(channel.channel_scales.size(), maxima.size());
      for (std::size_t c = 0; c < maxima.size(); ++c) {
        EXPECT_EQ(channel.channel_scales[c], 448.0f / maxima[c]) << c;
      }
    } else {
      ASSERT_EQ(channel.channel_int8.size(), maxima.size());
      for (std::size_t c = 0; c < maxima.size(); ++c) {
        EXPECT_EQ(channel.channel_int8[c].scale, int8_symmetric_params(maxima[c]).scale) << c;
      }
    }
  }
}

TEST(WeightParams, PerChannelEdgeShapes) {
  // A rank-0 weight has no channel axis.
  EXPECT_THROW((void)make_weight_params(Tensor(Shape{}), DType::kE4M3), std::invalid_argument);
  EXPECT_THROW((void)make_weight_params(Tensor(Shape{}), DType::kINT8), std::invalid_argument);
  // Three empty channels: three neutral FP8 scales, or three copies of
  // the INT8 parameters of an all-zero range.
  const Tensor empty(Shape{3, 0});
  const auto fp8 = make_weight_params(empty, DType::kE4M3);
  EXPECT_EQ(fp8.channel_scales, (std::vector<float>{1.0f, 1.0f, 1.0f}));
  const auto int8 = make_weight_params(empty, DType::kINT8);
  const Int8Params zero = int8_symmetric_params(0.0f);
  ASSERT_EQ(int8.channel_int8.size(), 3u);
  for (const Int8Params& p : int8.channel_int8) {
    EXPECT_EQ(p.scale, zero.scale);
    EXPECT_EQ(p.zero_point, zero.zero_point);
    EXPECT_EQ(p.qmin, zero.qmin);
    EXPECT_EQ(p.qmax, zero.qmax);
  }
}

TEST(WeightParams, E5M2WeightsStillMaxScaled) {
  // The direct-cast exception is activation-only; weights get max scaling.
  Tensor w({1, 2}, {0.001f, 0.002f});
  const auto p = make_weight_params(w, DType::kE5M2, Granularity::kPerTensor);
  EXPECT_GT(p.scale, 1.0f);
}

TEST(WeightParams, Fp32IsNoop) {
  Tensor w({2, 2}, {1.1f, 2.2f, 3.3f, 4.4f});
  const auto p = make_weight_params(w, DType::kFP32);
  EXPECT_TRUE(p.is_noop());
  const Tensor q = apply_quant(w, p);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q[i], w[i]);
}

TEST(ActivationParams, Fp8MaxScaling) {
  const auto p = make_activation_params(DType::kE4M3, 10.0f);
  EXPECT_FLOAT_EQ(p.scale, 44.8f);
  EXPECT_EQ(p.granularity, Granularity::kPerTensor);
}

TEST(ActivationParams, E5M2DirectScaleOne) {
  const auto p = make_activation_params(DType::kE5M2, 1234.0f);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(ActivationParams, Int8AsymmetricRange) {
  const auto p = make_activation_params(DType::kINT8, 0.0f, 2.55f);
  EXPECT_EQ(p.int8.zero_point, -128);
  EXPECT_NEAR(p.int8.scale, 0.01f, 1e-6f);
}

TEST(ActivationParams, DynamicUsesRuntimeRange) {
  Tensor x({4}, {-1.0f, 0.5f, 3.0f, 2.0f});
  const auto p = make_dynamic_activation_params(DType::kE4M3, x);
  EXPECT_FLOAT_EQ(p.scale, 448.0f / 3.0f);
  const auto pi = make_dynamic_activation_params(DType::kINT8, x);
  EXPECT_NEAR(pi.int8.scale, 4.0f / 255.0f, 1e-6f);
}

TEST(ApplyQuant, ValuesLandOnGrid) {
  Rng rng(7);
  Tensor x = randn(rng, {1000});
  const auto p = make_activation_params(DType::kE4M3, absmax(x));
  const Tensor q = apply_quant(x, p);
  // Idempotence: the quantized tensor is a fixed point.
  const Tensor q2 = apply_quant(q, p);
  for (std::int64_t i = 0; i < q.numel(); ++i) EXPECT_EQ(q[i], q2[i]);
}

TEST(ApplyQuant, InPlaceMatchesOutOfPlace) {
  Rng rng(9);
  Tensor x = randn(rng, {256});
  const auto p = make_activation_params(DType::kE3M4, 2.0f);
  Tensor inplace = x;
  apply_quant_inplace(inplace, p);
  const Tensor out = apply_quant(x, p);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(inplace[i], out[i]);
}

TEST(ApplyQuant, PerChannelAxisMismatchThrows) {
  Tensor w({2, 2});
  QuantParams p;
  p.dtype = DType::kE4M3;
  p.granularity = Granularity::kPerChannel;
  p.channel_scales = {1.0f, 1.0f, 1.0f};  // wrong count
  EXPECT_THROW(apply_quant_inplace(w, p), std::invalid_argument);
}

TEST(ApplyQuant, FormatPrecisionOrderingOnSmoothTensor) {
  // On a well-behaved tensor, max-scaled MSE ranks E3M4 < E4M3 < E5M2
  // (more mantissa bits = finer grid), reproducing the Figure 1 ordering
  // for the non-outlier case.
  Rng rng(11);
  Tensor x = randn(rng, {20000});
  const float amax = absmax(x);
  const double e3 = mse(x, apply_quant(x, make_activation_params(DType::kE3M4, amax)));
  const double e4 = mse(x, apply_quant(x, make_activation_params(DType::kE4M3, amax)));
  const double e5 = mse(x, apply_quant(x, make_activation_params(DType::kE5M2, amax)));
  EXPECT_LT(e3, e4);
  EXPECT_LT(e4, e5);
}

TEST(ApplyQuant, MildOutliersAlreadyHurtInt8MoreThanE3M4) {
  // Figure 1 protocol (1% outliers at +/-6 over N(0, 0.5)): E3M4's dense
  // near-zero grid beats INT8's outlier-stretched uniform grid.
  Rng rng(13);
  Tensor x = randn(rng, {40000}, 0.0f, std::sqrt(0.5f));
  inject_outliers(x, rng, 0.01, -6.0f, 6.0f);
  const float amax = absmax(x);
  const auto [lo, hi] = minmax(x);
  const double e3 = mse(x, apply_quant(x, make_activation_params(DType::kE3M4, amax)));
  const double i8 = mse(x, apply_quant(x, make_activation_params(DType::kINT8, lo, hi)));
  EXPECT_LT(e3, i8);
}

TEST(ApplyQuant, LlmScaleOutliersHurtInt8MoreThanAllCalibratedFp8) {
  // The regime the paper's LLM results live in: outliers ~30x the bulk.
  // INT8's fixed step is stretched 30x while FP8's relative precision is
  // untouched, so both E4M3 and E3M4 win decisively.
  Rng rng(15);
  Tensor x = randn(rng, {40000}, 0.0f, std::sqrt(0.5f));
  inject_outliers(x, rng, 0.002, -20.0f, 20.0f);
  const float amax = absmax(x);
  const auto [lo, hi] = minmax(x);
  const double e4 = mse(x, apply_quant(x, make_activation_params(DType::kE4M3, amax)));
  const double e3 = mse(x, apply_quant(x, make_activation_params(DType::kE3M4, amax)));
  const double i8 = mse(x, apply_quant(x, make_activation_params(DType::kINT8, lo, hi)));
  EXPECT_LT(e4, i8);
  EXPECT_LT(e3, i8);
}

}  // namespace
}  // namespace fp8q
