// Model generators: shapes, determinism, distribution personalities.
#include "models/zoo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/metrics.h"
#include "nn/norm.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace fp8q {
namespace {

TEST(Cnn, ForwardShapeAndOps) {
  CnnSpec spec;
  spec.blocks = 2;
  Graph g = make_cnn(spec);
  Rng rng(1);
  Tensor x = randn(rng, {2, 3, 16, 16});
  Tensor y = g.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  // Has BatchNorm ops (extended coverage target).
  bool has_bn = false;
  for (auto id : g.node_ids()) has_bn |= g.node(id).kind == OpKind::kBatchNorm;
  EXPECT_TRUE(has_bn);
  EXPECT_GT(g.param_count(), 0);
}

TEST(Cnn, DeterministicAcrossBuilds) {
  CnnSpec spec;
  spec.seed = 42;
  Graph g1 = make_cnn(spec);
  Graph g2 = make_cnn(spec);
  Rng rng(2);
  Tensor x = randn(rng, {1, 3, 16, 16});
  EXPECT_EQ(max_abs_error(g1.forward(x).flat(), g2.forward(x).flat()), 0.0);
}

TEST(Cnn, DepthwiseVariantUsesGroups) {
  CnnSpec spec;
  spec.depthwise = true;
  spec.blocks = 1;
  Graph g = make_cnn(spec);
  Rng rng(3);
  Tensor x = randn(rng, {1, 3, 16, 16});
  EXPECT_EQ(g.forward(x).shape(), (Shape{1, 10}));
  // Depthwise variant has more conv nodes per block (dw + pw).
  int convs = 0;
  for (auto id : g.node_ids()) convs += g.node(id).kind == OpKind::kConv2d ? 1 : 0;
  EXPECT_GE(convs, 3);  // stem + dw + pw
}

TEST(Cnn, WeightSpreadWidensChannelRanges) {
  CnnSpec narrow;
  narrow.weight_spread = 0.0f;
  CnnSpec wide = narrow;
  wide.weight_spread = 8.0f;
  auto channel_range_ratio = [](Graph& g) {
    // Ratio of max to min per-channel absmax of the stem conv.
    auto ws = g.node(1).op->weights();
    const auto cm = absmax_per_channel(*ws[0], 0);
    const auto [lo, hi] = std::minmax_element(cm.begin(), cm.end());
    return *hi / std::max(*lo, 1e-12f);
  };
  Graph gn = make_cnn(narrow);
  Graph gw = make_cnn(wide);
  EXPECT_GT(channel_range_ratio(gw), channel_range_ratio(gn) * 4.0f);
}

TEST(Transformer, ForwardShape) {
  TransformerSpec spec;
  Graph g = make_transformer_encoder(spec);
  Rng rng(5);
  Tensor x = randn(rng, {2, spec.seq, spec.dim});
  EXPECT_EQ(g.forward(x).shape(), (Shape{2, 8}));
}

TEST(Transformer, ContainsAttentionPrimitives) {
  Graph g = make_transformer_encoder(TransformerSpec{});
  int bmm = 0;
  int ln = 0;
  int add = 0;
  for (auto id : g.node_ids()) {
    bmm += g.node(id).kind == OpKind::kBatchMatMul ? 1 : 0;
    ln += g.node(id).kind == OpKind::kLayerNorm ? 1 : 0;
    add += g.node(id).kind == OpKind::kAdd ? 1 : 0;
  }
  EXPECT_EQ(bmm, 4);  // 2 layers x (scores + ctx)
  EXPECT_EQ(ln, 5);   // 2 per layer + final
  EXPECT_EQ(add, 4);  // 2 residuals per layer
}

TEST(Transformer, GammaGainCreatesActivationOutliers) {
  // The LayerNorm outlier mechanism: amplified gamma channels must raise
  // the kurtosis/absmax of intermediate activations.
  TransformerSpec plain;
  plain.outlier_channel_fraction = 0.0f;
  TransformerSpec outlier = plain;
  outlier.outlier_channel_fraction = 0.1f;
  outlier.outlier_gamma_gain = 30.0f;

  auto max_activation = [](Graph& g, const Tensor& x) {
    float m = 0.0f;
    g.set_output_tap([&](Graph::NodeId, const Tensor& v) { m = std::max(m, absmax(v)); });
    (void)g.forward(x);
    g.set_output_tap(nullptr);
    return m;
  };
  Rng rng(7);
  Tensor x = randn(rng, {2, 16, 32});
  Graph gp = make_transformer_encoder(plain);
  Graph go = make_transformer_encoder(outlier);
  EXPECT_GT(max_activation(go, x), 5.0f * max_activation(gp, x));
}

TEST(DecoderLm, LogitsShapeAndDeterminism) {
  DecoderLmSpec spec;
  Graph g = make_decoder_lm(spec);
  Tensor ids({1, 5}, {1, 7, 3, 0, 9});
  Tensor pos({1, 5}, {0, 1, 2, 3, 4});
  std::vector<Tensor> in;
  in.push_back(ids);
  in.push_back(pos);
  Tensor y = g.forward(in);
  EXPECT_EQ(y.shape(), (Shape{1, 5, 64}));
  Graph g2 = make_decoder_lm(spec);
  EXPECT_EQ(max_abs_error(y.flat(), g2.forward(in).flat()), 0.0);
}

TEST(DecoderLm, PositionChangesLogits) {
  Graph g = make_decoder_lm(DecoderLmSpec{});
  Tensor ids({1, 3}, {5, 5, 5});
  Tensor pos1({1, 3}, {0, 1, 2});
  Tensor pos2({1, 3}, {3, 4, 5});
  std::vector<Tensor> a;
  a.push_back(ids);
  a.push_back(pos1);
  std::vector<Tensor> b;
  b.push_back(ids);
  b.push_back(pos2);
  EXPECT_GT(max_abs_error(g.forward(a).flat(), g.forward(b).flat()), 1e-3);
}

TEST(Dlrm, TwoTowerForward) {
  DlrmSpec spec;
  Graph g = make_dlrm(spec);
  Rng rng(9);
  Tensor dense = randn(rng, {4, 13});
  Tensor ids({4}, {0.0f, 10.0f, 100.0f, 199.0f});
  std::vector<Tensor> in;
  in.push_back(dense);
  in.push_back(ids);
  Tensor y = g.forward(in);
  EXPECT_EQ(y.shape(), (Shape{4, 1}));
  // Sigmoid output in (0, 1).
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GT(y[i], 0.0f);
    EXPECT_LT(y[i], 1.0f);
  }
  // Contains Embedding and Mul (interaction) ops.
  bool emb = false;
  bool mul = false;
  for (auto id : g.node_ids()) {
    emb |= g.node(id).kind == OpKind::kEmbedding;
    mul |= g.node(id).kind == OpKind::kMul;
  }
  EXPECT_TRUE(emb);
  EXPECT_TRUE(mul);
}

TEST(Unet, PreservesInputShape) {
  UnetSpec spec;
  Graph g = make_unet(spec);
  Rng rng(11);
  Tensor x = randn(rng, {2, 2, 16, 16});
  EXPECT_EQ(g.forward(x).shape(), x.shape());
}

TEST(Unet, SkipConnectionsPresent) {
  Graph g = make_unet(UnetSpec{});
  int adds = 0;
  for (auto id : g.node_ids()) adds += g.node(id).kind == OpKind::kAdd ? 1 : 0;
  EXPECT_EQ(adds, 2);
}

TEST(Mlp, DepthAndOutputDim) {
  MlpSpec spec;
  spec.layers = 4;
  spec.out_dim = 3;
  Graph g = make_mlp_model(spec);
  Rng rng(13);
  Tensor x = randn(rng, {5, 32});
  EXPECT_EQ(g.forward(x).shape(), (Shape{5, 3}));
}

TEST(Mlp, LayerNormVariant) {
  MlpSpec spec;
  spec.layernorm = true;
  spec.outlier_channel_fraction = 0.1f;
  spec.outlier_gamma_gain = 20.0f;
  Graph g = make_mlp_model(spec);
  int ln = 0;
  for (auto id : g.node_ids()) ln += g.node(id).kind == OpKind::kLayerNorm ? 1 : 0;
  EXPECT_EQ(ln, spec.layers);
}

TEST(ModelSizes, SpanFigure5Buckets) {
  // The zoo must be able to produce models across the paper's size axis.
  CnnSpec tiny;
  tiny.base_channels = 4;
  tiny.blocks = 1;
  TransformerSpec big;
  big.dim = 128;
  big.layers = 4;
  big.seq = 32;
  Graph gt = make_cnn(tiny);
  Graph gb = make_transformer_encoder(big);
  EXPECT_LT(gt.param_count(), 10000);
  EXPECT_GT(gb.param_count(), 500000);
}

}  // namespace
}  // namespace fp8q
