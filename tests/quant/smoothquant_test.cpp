#include "quant/smoothquant.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "metrics/metrics.h"
#include "nn/linear.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace fp8q {
namespace {

TEST(SmoothQuant, FactorsFormula) {
  // s_j = a_j^alpha / w_j^(1-alpha); with alpha = 0.5 this is sqrt(a/w).
  std::vector<float> a = {4.0f, 16.0f};
  std::vector<float> w = {1.0f, 4.0f};
  const auto s = smoothquant_factors(a, w, 0.5f);
  EXPECT_FLOAT_EQ(s[0], 2.0f);
  EXPECT_FLOAT_EQ(s[1], 2.0f);
}

TEST(SmoothQuant, AlphaOneMovesEverythingToWeights) {
  std::vector<float> a = {8.0f};
  std::vector<float> w = {2.0f};
  EXPECT_FLOAT_EQ(smoothquant_factors(a, w, 1.0f)[0], 8.0f);
  EXPECT_FLOAT_EQ(smoothquant_factors(a, w, 0.0f)[0], 0.5f);
}

TEST(SmoothQuant, DegenerateInputsNeutral) {
  std::vector<float> a = {0.0f};
  std::vector<float> w = {0.0f};
  EXPECT_GT(smoothquant_factors(a, w)[0], 0.0f);
  EXPECT_THROW(smoothquant_factors(a, std::vector<float>{1.0f, 2.0f}),
               std::invalid_argument);
}

TEST(SmoothQuant, TransformIsExactAtFp32) {
  // X W^T == (X/s) (W s)^T: folding must not change FP32 results.
  Rng rng(3);
  Tensor w = randn(rng, {4, 8});
  Tensor x = randn(rng, {5, 8});
  amplify_channels(x, rng, 1, 0.25, 50.0f);  // outlier channels

  LinearOp ref(w, Tensor{});
  const Tensor y_ref = ref.forward(std::array{&x});

  const auto act_cmax = absmax_per_channel(x, 1);
  const auto w_cmax = absmax_per_channel(w, 1);
  const auto s = smoothquant_factors(act_cmax, w_cmax, 0.5f);

  Tensor w2 = w;
  scale_weight_columns(w2, s);
  Tensor x2 = x;
  divide_channels(x2, s);
  LinearOp smoothed(w2, Tensor{});
  const Tensor y_smooth = smoothed.forward(std::array{&x2});

  EXPECT_LT(max_abs_error(y_ref.flat(), y_smooth.flat()),
            1e-3 * (1.0 + max_abs_error(y_ref.flat(), Tensor(y_ref.shape()).flat())));
}

TEST(SmoothQuant, FlattensActivationOutliers) {
  Rng rng(5);
  Tensor x = randn(rng, {64, 32});
  amplify_channels(x, rng, 1, 0.2, 80.0f);
  Tensor w = randn(rng, {16, 32}, 0.0f, 0.1f);

  const auto s = smoothquant_factors(absmax_per_channel(x, 1), absmax_per_channel(w, 1));
  Tensor x2 = x;
  divide_channels(x2, s);
  // Outlier ratio (absmax / median channel max) must shrink substantially.
  auto ratio = [](const Tensor& t) {
    const auto cm = absmax_per_channel(t, 1);
    std::vector<float> sorted(cm);
    std::sort(sorted.begin(), sorted.end());
    return absmax(t) / sorted[sorted.size() / 2];
  };
  EXPECT_LT(ratio(x2), ratio(x) * 0.25f);
}

TEST(SmoothQuant, ImprovesInt8QuantizationOfOutlierActivations) {
  // The end-to-end motivation: per-tensor INT8 on outlier activations is
  // bad; after smoothing, the product X W^T quantizes with less error.
  Rng rng(7);
  Tensor x = randn(rng, {32, 64});
  amplify_channels(x, rng, 1, 0.1, 60.0f);
  Tensor w = randn(rng, {16, 64}, 0.0f, 0.2f);

  auto quant_product_mse = [&](const Tensor& xs, const Tensor& ws) {
    LinearOp fp32(ws, Tensor{});
    const Tensor ref = fp32.forward(std::array{&xs});

    const auto [lo, hi] = minmax(xs);
    Tensor xq = apply_quant(xs, make_activation_params(DType::kINT8, lo, hi));
    Tensor wq = apply_quant(ws, make_weight_params(ws, DType::kINT8));
    LinearOp qop(wq, Tensor{});
    const Tensor got = qop.forward(std::array{&xq});
    return mse(ref.flat(), got.flat());
  };

  const double before = quant_product_mse(x, w);
  const auto s = smoothquant_factors(absmax_per_channel(x, 1), absmax_per_channel(w, 1));
  Tensor x2 = x;
  divide_channels(x2, s);
  Tensor w2 = w;
  scale_weight_columns(w2, s);
  const double after = quant_product_mse(x2, w2);
  EXPECT_LT(after, before * 0.5);
}

TEST(SmoothQuant, DivideChannelsIsTheElementwiseQuotientBitForBit) {
  // divide_channels is built to vectorize; every lane must still be one
  // IEEE division, over widths that leave every remainder, including an
  // empty last axis.
  const float specials[] = {0.0f,      -0.0f, 1e-42f, -3.5f, 1e30f, -INFINITY,
                            INFINITY, NAN,   7.0f,   1e-3f};
  Rng rng(11);
  for (std::int64_t d = 0; d <= 17; ++d) {
    Tensor x = randn(rng, {3, d});
    std::vector<float> f(static_cast<size_t>(d));
    for (size_t j = 0; j < f.size(); ++j) f[j] = 0.25f + 3.0f * static_cast<float>(j % 5);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      if (i % 3 == 0) x.data()[i] = specials[static_cast<size_t>(i / 3) % 10];
    }
    Tensor want = x;
    for (std::int64_t i = 0; i < want.numel(); ++i) want.data()[i] /= f[static_cast<size_t>(i % d)];
    divide_channels(x, f);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x.data()[i]),
                std::bit_cast<std::uint32_t>(want.data()[i]))
          << "d=" << d << " i=" << i;
    }
  }
}

TEST(SmoothQuant, ShapeValidation) {
  Tensor w({2, 3});
  std::vector<float> s = {1.0f, 2.0f};
  EXPECT_THROW(scale_weight_columns(w, s), std::invalid_argument);
  Tensor x({4, 3});
  EXPECT_THROW(divide_channels(x, s), std::invalid_argument);
}

}  // namespace
}  // namespace fp8q
