// End-to-end tests of the QuantizedGraph PTQ workflow (paper Figure 2).
#include "quant/quantized_graph.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/parallel.h"
#include "metrics/metrics.h"
#include "nn/conv.h"
#include "nn/elementwise.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/shape_ops.h"
#include "nn/embedding.h"
#include "obs/memory.h"
#include "quant/smoothquant.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

namespace fp8q {
namespace {

/// fc1 -> relu -> fc2 with a LayerNorm in front and a residual Add.
Graph make_mlp(Rng& rng, std::int64_t dim = 16) {
  Graph g;
  const auto in = g.add_input("x");
  const auto ln = g.add("ln",
                        std::make_unique<LayerNormOp>(Tensor({dim}, 1.0f),
                                                      Tensor(Shape{dim})),
                        {in});
  const auto fc1 = g.add(
      "fc1",
      std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.3f), randn(rng, {dim}, 0.0f, 0.1f)),
      {ln});
  const auto relu = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {fc1});
  const auto fc2 = g.add(
      "fc2",
      std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.3f), Tensor{}),
      {relu});
  g.add("res", std::make_unique<BinaryOp>(OpKind::kAdd), {fc2, ln});
  return g;
}

std::vector<Tensor> make_batches(Rng& rng, int n, Shape shape, float stddev = 1.0f) {
  std::vector<Tensor> batches;
  batches.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) batches.push_back(randn(rng, shape, 0.0f, stddev));
  return batches;
}

TEST(QuantizedGraph, Fp32ConfigIsIdentity) {
  Rng rng(3);
  Graph g = make_mlp(rng);
  Tensor x = randn(rng, {4, 16});
  const Tensor ref = g.forward(x);

  ModelQuantConfig cfg;  // FP32 everything
  QuantizedGraph qg(&g, cfg);
  auto calib = make_batches(rng, 2, {4, 16});
  qg.prepare(std::span<const Tensor>(calib));
  const Tensor got = qg.forward(x);
  EXPECT_EQ(max_abs_error(ref.flat(), got.flat()), 0.0);
}

TEST(QuantizedGraph, ForwardBeforePrepareThrows) {
  Rng rng(5);
  Graph g = make_mlp(rng);
  QuantizedGraph qg(&g, ModelQuantConfig{});
  Tensor x({1, 16});
  EXPECT_THROW((void)qg.forward(x), std::logic_error);
}

TEST(QuantizedGraph, PrepareQuantizesTheGraphInPlace) {
  Rng rng(7);
  Graph g = make_mlp(rng);
  auto* fc1 = dynamic_cast<LinearOp*>(g.node(2).op.get());
  ASSERT_NE(fc1, nullptr);
  const Tensor original = fc1->weight();

  Graph q = g.clone();
  auto* q_fc1 = dynamic_cast<LinearOp*>(q.node(2).op.get());
  ASSERT_NE(q_fc1, nullptr);
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  QuantizedGraph qg(&q, cfg);
  auto calib = make_batches(rng, 2, {4, 16});
  qg.prepare(std::span<const Tensor>(calib));
  // The clone's weights now differ (quantized in place)...
  EXPECT_GT(max_abs_error(original.flat(), q_fc1->weight().flat()), 0.0);
  // ...and every element sits on the E4M3 per-channel grid (idempotent).
  const auto params = make_weight_params(q_fc1->weight(), DType::kE4M3);
  const Tensor again = apply_quant(q_fc1->weight(), params);
  // Not bit-exact: the re-derived channel scale differs by one float ULP
  // when the channel max itself was the scaled value; grid points match
  // to that tolerance.
  EXPECT_LT(max_abs_error(q_fc1->weight().flat(), again.flat()), 1e-6);
  // The source graph keeps its FP32 weights.
  EXPECT_EQ(max_abs_error(original.flat(), fc1->weight().flat()), 0.0);
}

TEST(QuantizedGraph, SecondPrepareThrows) {
  Rng rng(9);
  Graph g = make_mlp(rng);
  auto* fc1 = dynamic_cast<LinearOp*>(g.node(2).op.get());
  ASSERT_NE(fc1, nullptr);

  // SmoothQuant folds its factors into the weights, so a second pipeline
  // run would visibly move them.
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  cfg.scheme.smoothquant = true;
  QuantizedGraph qg(&g, cfg);
  auto calib = make_batches(rng, 2, {4, 16});
  qg.prepare(std::span<const Tensor>(calib));
  const Tensor quantized = fc1->weight();
  EXPECT_THROW(qg.prepare(std::span<const Tensor>(calib)), std::logic_error);
  // The rejected call leaves the weights as the first prepare() left them.
  EXPECT_EQ(max_abs_error(quantized.flat(), fc1->weight().flat()), 0.0);
  EXPECT_TRUE(qg.prepared());
}

TEST(QuantizedGraph, CalibratingSchemesRejectAnEmptyCalibrationSet) {
  // A scheme that needs calibration data refuses an empty set instead of
  // running as some other scheme under its own label.
  SchemeConfig smooth = standard_fp8_scheme(DType::kE4M3, true);
  smooth.smoothquant = true;
  for (const SchemeConfig& scheme :
       {standard_fp8_scheme(DType::kE4M3), standard_fp8_scheme(DType::kE3M4),
        int8_scheme(false), smooth}) {
    Rng rng(10);
    Graph g = make_mlp(rng);
    auto* fc1 = dynamic_cast<LinearOp*>(g.node(2).op.get());
    ASSERT_NE(fc1, nullptr);
    const Tensor original = fc1->weight();
    ModelQuantConfig cfg;
    cfg.scheme = scheme;
    QuantizedGraph qg(&g, cfg);
    try {
      qg.prepare(std::span<const Tensor>{});
      ADD_FAILURE() << scheme.label() << " prepared on an empty calibration set";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(scheme.label()), std::string::npos) << e.what();
    }
    EXPECT_FALSE(qg.prepared());
    EXPECT_EQ(max_abs_error(original.flat(), fc1->weight().flat()), 0.0);
  }
}

TEST(QuantizedGraph, QuantizationPerturbsButTracksReference) {
  Rng rng(11);
  Graph g = make_mlp(rng);
  Tensor x = randn(rng, {8, 16});
  const Tensor ref = g.forward(x);

  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  QuantizedGraph qg(&g, cfg);
  auto calib = make_batches(rng, 4, {8, 16});
  qg.prepare(std::span<const Tensor>(calib));
  const Tensor got = qg.forward(x);
  const double err = mse(ref.flat(), got.flat());
  EXPECT_GT(err, 0.0);                         // quantization is lossy...
  EXPECT_GT(sqnr_db(ref.flat(), got.flat()), 20.0);  // ...but close (> 20 dB)
}

TEST(QuantizedGraph, ExtendedOpsCoverageToggle) {
  Rng rng(13);
  Graph g = make_mlp(rng);

  ModelQuantConfig std_cfg;
  std_cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  const auto std_nodes = select_quantized_nodes(g, std_cfg);
  // Standard scheme: only the two Linears (LayerNorm/Add excluded).
  EXPECT_EQ(std_nodes.size(), 2u);
  EXPECT_FALSE(std_nodes.contains(1));  // LayerNorm
  EXPECT_TRUE(std_nodes.contains(2));   // fc1

  ModelQuantConfig ext_cfg;
  ext_cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  ext_cfg.scheme.quantize_extended_ops = true;
  const auto ext_nodes = select_quantized_nodes(g, ext_cfg);
  EXPECT_EQ(ext_nodes.size(), 4u);  // + LayerNorm + Add
  EXPECT_TRUE(ext_nodes.contains(1));
  EXPECT_TRUE(ext_nodes.contains(5));
}

TEST(QuantizedGraph, FallbackNodeAndKindExclusions) {
  Rng rng(15);
  Graph g = make_mlp(rng);
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  cfg.scheme.quantize_extended_ops = true;
  cfg.fallback_nodes = {2};                    // fc1 forced FP32
  cfg.fallback_kinds = {OpKind::kLayerNorm};   // all LayerNorms FP32
  const auto nodes = select_quantized_nodes(g, cfg);
  EXPECT_FALSE(nodes.contains(2));
  EXPECT_FALSE(nodes.contains(1));
  EXPECT_TRUE(nodes.contains(4));  // fc2 still on
}

TEST(QuantizedGraph, CnnFirstLastException) {
  Rng rng(17);
  Graph g;
  const auto in = g.add_input("x");
  const auto c1 = g.add("conv1",
                        std::make_unique<Conv2dOp>(randn(rng, {4, 3, 3, 3}, 0.0f, 0.2f),
                                                   Tensor{}, 1, 1),
                        {in});
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {c1});
  const auto c2 = g.add("conv2",
                        std::make_unique<Conv2dOp>(randn(rng, {4, 4, 3, 3}, 0.0f, 0.2f),
                                                   Tensor{}, 1, 1),
                        {r});
  const auto pool = g.add("pool", std::make_unique<GlobalAvgPoolOp>(), {c2});
  g.add("head", std::make_unique<LinearOp>(randn(rng, {10, 4}, 0.0f, 0.3f), Tensor{}),
        {pool});

  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  cfg.is_cnn = true;
  const auto nodes = select_quantized_nodes(g, cfg);
  EXPECT_FALSE(nodes.contains(1));  // first conv stays FP32
  EXPECT_FALSE(nodes.contains(5));  // last linear stays FP32
  EXPECT_TRUE(nodes.contains(3));   // middle conv quantized

  // With the exception disabled (tuning option, section 4.3.1) they join.
  cfg.scheme.skip_first_last = false;
  const auto all_nodes = select_quantized_nodes(g, cfg);
  EXPECT_TRUE(all_nodes.contains(1));
  EXPECT_TRUE(all_nodes.contains(5));

  // Non-CNN models never apply the exception.
  cfg.scheme.skip_first_last = true;
  cfg.is_cnn = false;
  EXPECT_TRUE(select_quantized_nodes(g, cfg).contains(1));
}

TEST(QuantizedGraph, StaticMatchesDynamicWhenCalibMatchesEval) {
  // With identical calibration and evaluation distributions and per-batch
  // absmax close to the global one, static and dynamic should be close.
  Rng rng(19);
  Graph g = make_mlp(rng);
  Tensor x = randn(rng, {64, 16});
  const Tensor ref = g.forward(x);

  ModelQuantConfig scfg;
  scfg.scheme = standard_fp8_scheme(DType::kE4M3, false);
  Graph sg = g.clone();
  QuantizedGraph sqg(&sg, scfg);
  std::vector<Tensor> calib = {x};
  sqg.prepare(std::span<const Tensor>(calib));
  const Tensor ys = sqg.forward(x);

  ModelQuantConfig dcfg;
  dcfg.scheme = standard_fp8_scheme(DType::kE4M3, true);
  QuantizedGraph dqg(&g, dcfg);
  dqg.prepare(std::span<const Tensor>(calib));
  const Tensor yd = dqg.forward(x);

  // Calibration observes activations before *activation* quantization (the
  // standard PTQ pass), so downstream clips differ slightly from the
  // dynamic per-batch ones: expect agreement within roughly one grid step,
  // and both faithful to the FP32 reference.
  EXPECT_LT(max_abs_error(ys.flat(), yd.flat()), 0.5);
  EXPECT_GT(sqnr_db(ref.flat(), ys.flat()), 20.0);
  EXPECT_GT(sqnr_db(ref.flat(), yd.flat()), 20.0);
}

TEST(QuantizedGraph, E5M2NeedsNoCalibration) {
  Rng rng(21);
  Graph g = make_mlp(rng);
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE5M2);
  QuantizedGraph qg(&g, cfg);
  // Empty calibration set: direct quantization must still work.
  qg.prepare(std::span<const Tensor>{});
  Tensor x = randn(rng, {4, 16});
  const Tensor y = qg.forward(x);
  EXPECT_EQ(y.numel(), 4 * 16);
  // No clips recorded (no range calibration for E5M2).
  EXPECT_EQ(qg.activation_clip(2, 0), 0.0f);
}

TEST(QuantizedGraph, SecondLinearCastsItsInputInPlace) {
  // fc2 is the last reader of fc1's output, so its input fake-quant takes
  // that tensor and casts it in place. A forward allocates the cast copy
  // of the caller's input and the two Linear outputs, and no copy of fc1's
  // output, with the bits of casting each input by hand.
  Rng rng(47);
  Graph g;
  const auto x = g.add_input("x");
  const auto fc1 = g.add(
      "fc1", std::make_unique<LinearOp>(randn(rng, {16, 16}, 0.0f, 0.3f), Tensor{}), {x});
  const auto fc2 = g.add(
      "fc2", std::make_unique<LinearOp>(randn(rng, {16, 16}, 0.0f, 0.3f), Tensor{}), {fc1});
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE5M2);
  QuantizedGraph qg(&g, cfg);
  qg.prepare(std::span<const Tensor>{});
  const Tensor in = randn(rng, {4, 16});

  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = qg.forward(in);
  EXPECT_EQ(alloc_counters_snapshot().since(before).allocs, 3u);

  const QuantParams direct = make_activation_params(DType::kE5M2, 1.0f);
  Tensor a = in;
  apply_quant_inplace(a, direct);
  Tensor h = g.node(fc1).op->forward(std::array{&a});
  apply_quant_inplace(h, direct);
  const Tensor want = g.node(fc2).op->forward(std::array{&h});
  ASSERT_EQ(y.shape(), want.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]), std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i;
  }
}

TEST(QuantizedGraph, StaticCalibrationRecordsClips) {
  Rng rng(23);
  Graph g = make_mlp(rng);
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  QuantizedGraph qg(&g, cfg);
  auto calib = make_batches(rng, 4, {8, 16});
  qg.prepare(std::span<const Tensor>(calib));
  EXPECT_GT(qg.activation_clip(2, 0), 0.0f);  // fc1 input observed
  EXPECT_GT(qg.activation_clip(4, 0), 0.0f);  // fc2 input observed
  EXPECT_EQ(qg.activation_clip(3, 0), 0.0f);  // relu not quantized
}

TEST(QuantizedGraph, PercentileCalibrationStillSamples) {
  // The percentile method reads the observers' reservoir, so its observers
  // keep Vitter's algorithm: 4 batches of 512 x 16 overflow the 16384-value
  // reservoir, and the clips are pinned to the bits the sampling observer
  // has always produced. absmax calibration keeps no sample; its clip is
  // the exact observed absmax, which no percentile below 1 reaches here.
  auto prepared_clips = [](CalibMethod method) {
    Rng rng(29);
    Graph g = make_mlp(rng);
    ModelQuantConfig cfg;
    cfg.scheme = standard_fp8_scheme(DType::kE4M3);
    cfg.scheme.act_calib = method;
    cfg.scheme.percentile = 0.99;
    QuantizedGraph qg(&g, cfg);
    auto calib = make_batches(rng, 4, {512, 16});
    qg.prepare(std::span<const Tensor>(calib));
    return std::pair{std::bit_cast<std::uint32_t>(qg.activation_clip(2, 0)),
                     std::bit_cast<std::uint32_t>(qg.activation_clip(4, 0))};
  };
  const auto percentile = prepared_clips(CalibMethod::kPercentile);
  EXPECT_EQ(percentile.first, 0x401a0c02u);
  EXPECT_EQ(percentile.second, 0x402da0e4u);
  const auto amax = prepared_clips(CalibMethod::kAbsMax);
  EXPECT_GT(std::bit_cast<float>(amax.first), std::bit_cast<float>(percentile.first));
  EXPECT_GT(std::bit_cast<float>(amax.second), std::bit_cast<float>(percentile.second));
}

TEST(QuantizedGraph, BatchNormCalibrationRecoversShiftedStats) {
  Rng rng(25);
  // conv -> bn -> relu -> pool -> fc, with BN stats deliberately wrong.
  Graph g;
  const auto in = g.add_input("x");
  const auto c1 = g.add("conv1",
                        std::make_unique<Conv2dOp>(randn(rng, {4, 2, 3, 3}, 0.0f, 0.3f),
                                                   Tensor{}, 1, 1),
                        {in});
  const auto bn = g.add("bn",
                        std::make_unique<BatchNorm2dOp>(Tensor({4}, 1.0f), Tensor(Shape{4}),
                                                        Tensor({4}, 5.0f),  // wrong mean
                                                        Tensor({4}, 9.0f)), // wrong var
                        {c1});
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {bn});
  const auto pool = g.add("pool", std::make_unique<GlobalAvgPoolOp>(), {r});
  g.add("head", std::make_unique<LinearOp>(randn(rng, {3, 4}, 0.0f, 0.4f), Tensor{}),
        {pool});

  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  cfg.is_cnn = true;
  cfg.bn_calibration_batches = 8;
  QuantizedGraph qg(&g, cfg);
  auto calib = make_batches(rng, 8, {4, 2, 8, 8});
  qg.prepare(std::span<const Tensor>(calib));

  auto* bn_op = dynamic_cast<BatchNorm2dOp*>(g.node(bn).op.get());
  ASSERT_NE(bn_op, nullptr);
  // Conv output of N(0,1) inputs has roughly zero mean: the calibrated
  // mean must move from 5.0 towards 0.
  EXPECT_LT(std::fabs(bn_op->running_mean()[0]), 1.0f);
  EXPECT_FALSE(bn_op->calibrating());
}

TEST(QuantizedGraph, SmoothQuantImprovesOutlierModelUnderInt8) {
  // A linear model whose input has outlier channels: enabling SmoothQuant
  // must reduce the INT8 output error (the paper applies it to all NLP
  // workloads before quantization).
  Rng rng(27);
  const std::int64_t dim = 32;
  Graph g;
  const auto in = g.add_input("x");
  const auto fc1 = g.add(
      "fc1", std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.2f), Tensor{}),
      {in});
  const auto r = g.add("gelu", std::make_unique<ActivationOp>(OpKind::kGelu), {fc1});
  g.add("fc2", std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.2f), Tensor{}),
        {r});

  auto outlier_batch = [&](Rng& r2) {
    Tensor t = randn(r2, {16, dim});
    Rng channel_rng(99);  // same channels amplified every batch
    amplify_channels(t, channel_rng, 1, 0.1, 50.0f);
    return t;
  };
  Rng data_rng(31);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(outlier_batch(data_rng));
  Tensor x = outlier_batch(data_rng);
  const Tensor ref = g.forward(x);

  auto run = [&](bool smooth) {
    ModelQuantConfig cfg;
    cfg.scheme = int8_scheme(false);
    cfg.scheme.smoothquant = smooth;
    Graph q = g.clone();
    QuantizedGraph qg(&q, cfg);
    qg.prepare(std::span<const Tensor>(calib));
    const Tensor y = qg.forward(x);
    return mse(ref.flat(), y.flat());
  };
  const double plain = run(false);
  const double smoothed = run(true);
  EXPECT_LT(smoothed, plain);
}

TEST(QuantizedGraph, EmbeddingIndicesNeverQuantized) {
  // The embedding table is quantized; the integer index input must pass
  // through untouched (otherwise ids like 7 would be rounded onto a grid).
  Rng rng(33);
  Graph g;
  const auto in = g.add_input("ids");
  Tensor table = randn(rng, {100, 8}, 0.0f, 0.02f);  // small values: grid-sensitive
  const auto emb = g.add("emb", std::make_unique<EmbeddingOp>(table), {in});
  g.add("fc", std::make_unique<LinearOp>(randn(rng, {4, 8}, 0.0f, 0.3f), Tensor{}),
        {emb});

  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  EXPECT_TRUE(select_quantized_nodes(g, cfg).contains(1));  // the table is covered...
  QuantizedGraph qg(&g, cfg);
  Tensor ids({5}, {0.0f, 17.0f, 42.0f, 99.0f, 3.0f});
  std::vector<Tensor> calib = {ids};
  qg.prepare(std::span<const Tensor>(calib));
  // ...but forward must not throw (quantizing id 99 against the table's
  // tiny scale would produce out-of-range garbage indices).
  const Tensor y = qg.forward(ids);
  EXPECT_EQ(y.shape(), (Shape{5, 4}));
}

TEST(QuantizedGraph, QuantizedComputeFraction) {
  Rng rng(41);
  Graph g = make_mlp(rng);
  // All compute ops quantized (non-CNN, no fallbacks): fraction 1.
  ModelQuantConfig all;
  all.scheme = standard_fp8_scheme(DType::kE4M3);
  EXPECT_DOUBLE_EQ(quantized_compute_fraction(g, all), 1.0);

  // Falling back fc1 (the larger share of parameters) drops the fraction
  // below 1 but above 0.
  ModelQuantConfig part = all;
  part.fallback_nodes = {2};
  EXPECT_GT(quantized_compute_fraction(g, part), 0.0);
  EXPECT_LT(quantized_compute_fraction(g, part), 1.0);

  // FP32-everything config: nothing covered.
  ModelQuantConfig none;
  none.fallback_kinds = {OpKind::kLinear, OpKind::kConv2d, OpKind::kMatMul,
                         OpKind::kBatchMatMul, OpKind::kEmbedding};
  EXPECT_DOUBLE_EQ(quantized_compute_fraction(g, none), 0.0);
}

TEST(QuantizedGraph, ConcurrentForwardsMatchSerialForwards) {
  // forward() writes no shared state, so forwards racing on one prepared
  // graph must return exactly the serial outputs. The size matters: with
  // much less work per forward, the forwards rarely overlap.
  Rng rng(43);
  Graph g = make_mlp(rng, 64);
  ModelQuantConfig cfg;
  cfg.scheme = standard_fp8_scheme(DType::kE4M3);
  QuantizedGraph qg(&g, cfg);
  const auto calib = make_batches(rng, 2, {32, 64});
  qg.prepare(std::span<const Tensor>(calib));

  const auto inputs = make_batches(rng, 64, {64, 64});
  std::vector<Tensor> serial;
  serial.reserve(inputs.size());
  for (const Tensor& x : inputs) serial.push_back(qg.forward(x));

  set_num_threads(4);
  const std::vector<Tensor> concurrent =
      parallel_map(static_cast<std::int64_t>(inputs.size()),
                   [&](std::int64_t i) { return qg.forward(inputs[static_cast<size_t>(i)]); });
  set_num_threads(0);

  ASSERT_EQ(concurrent.size(), serial.size());
  for (size_t b = 0; b < serial.size(); ++b) {
    ASSERT_EQ(concurrent[b].shape(), serial[b].shape());
    for (std::int64_t i = 0; i < serial[b].numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(concurrent[b][i]),
                std::bit_cast<std::uint32_t>(serial[b][i]))
          << "batch " << b << " element " << i;
    }
  }
}

/// fc1 -> GELU -> fc2 over inputs with amplified channels, and 3 batches
/// of them: a model SmoothQuant rescales.
struct OutlierModel {
  Graph graph;
  Graph::NodeId fc1 = -1;
  Graph::NodeId fc2 = -1;
  std::vector<std::vector<Tensor>> calib;
  Tensor x;
};

OutlierModel make_outlier_model() {
  Rng rng(53);
  const std::int64_t dim = 24;
  OutlierModel m;
  const auto in = m.graph.add_input("x");
  m.fc1 = m.graph.add(
      "fc1", std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.2f), randn(rng, {dim})),
      {in});
  const auto gelu = m.graph.add("gelu", std::make_unique<ActivationOp>(OpKind::kGelu), {m.fc1});
  m.fc2 = m.graph.add(
      "fc2", std::make_unique<LinearOp>(randn(rng, {dim, dim}, 0.0f, 0.2f), Tensor{}), {gelu});
  auto batch = [&] {
    Tensor t = randn(rng, {8, dim});
    Rng channel_rng(99);  // the same channels amplified in every batch
    amplify_channels(t, channel_rng, 1, 0.2, 40.0f);
    return t;
  };
  for (int b = 0; b < 3; ++b) m.calib.push_back({batch()});
  m.x = batch();
  return m;
}

void expect_same_bits(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i;
  }
}

TEST(QuantizedGraph, GivenSmoothQuantStatisticsPrepareAsComputedOnes) {
  // prepare(calib) computes the statistics on the graph it quantizes;
  // prepare(calib, stats) folds statistics computed on another clone of
  // the FP32 model. Both must leave the same weights (the folded factors)
  // and the same forward bits (the divide by them), with and without a
  // fallback Linear, whose statistics are then ignored.
  OutlierModel m = make_outlier_model();
  Graph fp32 = m.graph.clone();
  const SmoothQuantStats stats =
      smoothquant_statistics(fp32, std::span<const std::vector<Tensor>>(m.calib));
  ASSERT_TRUE(stats.contains(m.fc1));
  ASSERT_TRUE(stats.contains(m.fc2));
  for (const SchemeConfig& scheme :
       {standard_fp8_scheme(DType::kE4M3), standard_fp8_scheme(DType::kE5M2), int8_scheme(false),
        standard_fp8_scheme(DType::kE4M3, true)}) {
    for (const bool fallback : {false, true}) {
      ModelQuantConfig cfg;
      cfg.scheme = scheme;
      cfg.scheme.smoothquant = true;
      if (fallback) cfg.fallback_nodes = {m.fc1};
      const std::string what = scheme.label() + (fallback ? " fc1 fallback" : "");
      Graph computed = m.graph.clone();
      QuantizedGraph qc(&computed, cfg);
      qc.prepare(std::span<const std::vector<Tensor>>(m.calib));
      Graph given = m.graph.clone();
      QuantizedGraph qg(&given, cfg);
      qg.prepare(std::span<const std::vector<Tensor>>(m.calib), stats);
      for (const Graph::NodeId id : {m.fc1, m.fc2}) {
        expect_same_bits(*given.node(id).op->weights()[0], *computed.node(id).op->weights()[0],
                         what + " weight of node " + std::to_string(id));
      }
      if (fallback) {
        // Neither folded nor quantized: fc1 keeps the FP32 weight.
        expect_same_bits(*given.node(m.fc1).op->weights()[0],
                         *m.graph.node(m.fc1).op->weights()[0], what + " fc1 weight");
      }
      expect_same_bits(qg.forward(m.x), qc.forward(m.x), what + " forward");
    }
  }
}

TEST(QuantizedGraph, GivenSmoothQuantStatisticsRunNoForward) {
  // With the statistics given, a SmoothQuant prepare that needs no range
  // calibration (dynamic, or E5M2) runs no forward at all; without them
  // it runs one statistics forward per calibration batch. An output tap
  // on the graph counts the forwards' nodes.
  OutlierModel m = make_outlier_model();
  Graph fp32 = m.graph.clone();
  const SmoothQuantStats stats =
      smoothquant_statistics(fp32, std::span<const std::vector<Tensor>>(m.calib));
  for (const SchemeConfig& scheme :
       {standard_fp8_scheme(DType::kE4M3, true), standard_fp8_scheme(DType::kE5M2)}) {
    ModelQuantConfig cfg;
    cfg.scheme = scheme;
    cfg.scheme.smoothquant = true;
    for (const bool given : {true, false}) {
      Graph g = m.graph.clone();
      int values = 0;
      g.set_output_tap([&values](Graph::NodeId /*id*/, const Tensor& /*value*/) { ++values; });
      QuantizedGraph qg(&g, cfg);
      if (given) {
        qg.prepare(std::span<const std::vector<Tensor>>(m.calib), stats);
      } else {
        qg.prepare(std::span<const std::vector<Tensor>>(m.calib));
      }
      // One value per node (the input and three ops) per forward.
      EXPECT_EQ(values, given ? 0 : 4 * static_cast<int>(m.calib.size())) << scheme.label();
    }
  }
}

}  // namespace
}  // namespace fp8q
