// Per-token dynamic activation scaling (the extension the paper excludes
// for kernel-overhead reasons; related work Xiao et al. / Dettmers et al.).
#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace fp8q {
namespace {

TEST(PerTokenQuant, EachRowOnItsOwnGrid) {
  // Two rows with wildly different scales: per-token scaling represents
  // both at full relative precision.
  Tensor x({2, 4}, {0.001f, 0.002f, -0.003f, 0.004f, 100.0f, 200.0f, -300.0f, 400.0f});
  Tensor q = x;
  apply_per_token_dynamic(q, DType::kE3M4);
  // Small row error stays proportional to the small values, not to 400.
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(q[i], x[i], std::abs(x[i]) * 0.05f + 1e-9f) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_NEAR(q[i], x[i], std::abs(x[i]) * 0.05f) << i;
  }
}

TEST(PerTokenQuant, BeatsPerTensorOnTokenOutliers) {
  // One outlier token stretches the per-tensor grid but not the per-token
  // grids of the other rows.
  Rng rng(3);
  Tensor x = randn(rng, {64, 32});
  for (std::int64_t j = 0; j < 32; ++j) x.at({7, j}) *= 500.0f;

  Tensor per_tensor = x;
  apply_quant_inplace(per_tensor, make_dynamic_activation_params(DType::kINT8, x));
  Tensor per_token = x;
  apply_per_token_dynamic(per_token, DType::kINT8);
  EXPECT_LT(mse(x, per_token), mse(x, per_tensor) * 0.1);
}

TEST(PerTokenQuant, Fp32AndEmptyAreNoops) {
  Tensor x({2, 2}, {1, 2, 3, 4});
  Tensor q = x;
  apply_per_token_dynamic(q, DType::kFP32);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q[i], x[i]);
  Tensor empty({0, 4});
  apply_per_token_dynamic(empty, DType::kE4M3);  // must not crash
}

TEST(PerTokenQuant, E5M2KeepsDirectCast) {
  Tensor x({1, 2}, {1.0f, 2.0f});
  Tensor q = x;
  apply_per_token_dynamic(q, DType::kE5M2);
  EXPECT_EQ(q[0], 1.0f);  // exact values unchanged (scale 1)
  EXPECT_EQ(q[1], 2.0f);
}

TEST(PerTokenQuant, SchemeFlagRunsEndToEnd) {
  TransformerSpec spec;
  spec.dim = 16;
  spec.seq = 4;
  spec.layers = 1;
  Graph g = make_transformer_encoder(spec);
  Rng rng(5);
  Tensor x = randn(rng, {8, 4, 16});
  const Tensor ref = g.forward(x);

  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  cfg.scheme.per_token_activations = true;
  Graph q = g.clone();
  QuantizedGraph qg(&q, cfg);
  qg.prepare(std::span<const Tensor>{});  // no range calibration needed
  const Tensor got = qg.forward(x);
  EXPECT_GT(sqnr_db(ref.flat(), got.flat()), 15.0);

  // Per-token at least matches plain per-tensor dynamic on this model.
  ModelQuantConfig dyn = cfg;
  dyn.scheme.per_token_activations = false;
  dyn.scheme.dynamic_activations = true;
  QuantizedGraph qd(&g, dyn);
  qd.prepare(std::span<const Tensor>{});
  const Tensor got_dyn = qd.forward(x);
  EXPECT_GE(sqnr_db(ref.flat(), got.flat()), sqnr_db(ref.flat(), got_dyn.flat()) - 1.0);
}

}  // namespace
}  // namespace fp8q
