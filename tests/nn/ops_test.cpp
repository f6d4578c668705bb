// Reference-value tests for each operator kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nn/conv.h"
#include "nn/elementwise.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "nn/norm.h"
#include "nn/shape_ops.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// One operand for an op's forward(), read in place.
std::array<const Tensor*, 1> single(const Tensor& t) { return {&t}; }

TEST(LinearOp, HandComputed) {
  // y = x W^T + b with W = [[1,2],[3,4]], b = [0.5, -0.5].
  LinearOp op(Tensor({2, 2}, {1, 2, 3, 4}), Tensor({2}, {0.5f, -0.5f}));
  Tensor x({1, 2}, {1.0f, 1.0f});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
}

TEST(LinearOp, NoBiasAndBatchedRank3) {
  LinearOp op(Tensor({1, 2}, {2.0f, 3.0f}), Tensor{});
  Tensor x({2, 2, 2}, {1, 0, 0, 1, 1, 1, 2, 2});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{2, 2, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
  EXPECT_FLOAT_EQ(y[3], 10.0f);
}

TEST(LinearOp, ValidatesShapes) {
  EXPECT_THROW(LinearOp(Tensor({2}), Tensor{}), std::invalid_argument);
  EXPECT_THROW(LinearOp(Tensor({2, 2}), Tensor({3})), std::invalid_argument);
  LinearOp op(Tensor({2, 3}), Tensor{});
  Tensor bad({1, 4});
  EXPECT_THROW(op.forward(single(bad)), std::invalid_argument);
}

TEST(LinearOp, WeightsExposed) {
  LinearOp with_bias(Tensor({2, 2}), Tensor({2}));
  EXPECT_EQ(with_bias.weights().size(), 2u);
  EXPECT_EQ(with_bias.param_count(), 6);
  LinearOp no_bias(Tensor({2, 2}), Tensor{});
  EXPECT_EQ(no_bias.weights().size(), 1u);
}

TEST(Conv2dOp, IdentityKernel) {
  // 1x1 conv with weight 1.0 is identity.
  Conv2dOp op(Tensor({1, 1, 1, 1}, {1.0f}), Tensor{});
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), x.shape());
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2dOp, SumKernelWithPadding) {
  // 3x3 all-ones kernel, pad 1: center output = sum of all 4 inputs.
  Conv2dOp op(Tensor({1, 1, 3, 3}, std::vector<float>(9, 1.0f)), Tensor{}, 1, 1);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 10.0f);  // all in window
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 10.0f);
}

TEST(Conv2dOp, StrideReducesSpatial) {
  Conv2dOp op(Tensor({1, 1, 2, 2}, {1, 1, 1, 1}), Tensor{}, 2, 0);
  Tensor x({1, 1, 4, 4}, std::vector<float>(16, 1.0f));
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 4.0f);
}

TEST(Conv2dOp, BiasApplied) {
  Conv2dOp op(Tensor({2, 1, 1, 1}, {1.0f, 2.0f}), Tensor({2}, {10.0f, 20.0f}));
  Tensor x({1, 1, 1, 1}, {3.0f});
  Tensor y = op.forward(single(x));
  EXPECT_FLOAT_EQ(y[0], 13.0f);
  EXPECT_FLOAT_EQ(y[1], 26.0f);
}

TEST(Conv2dOp, DepthwiseGroups) {
  // groups == channels: each channel convolved independently.
  Conv2dOp op(Tensor({2, 1, 1, 1}, {2.0f, 3.0f}), Tensor{}, 1, 0, 2);
  Tensor x({1, 2, 1, 1}, {1.0f, 1.0f});
  Tensor y = op.forward(single(x));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
  EXPECT_EQ(op.in_channels(), 2);
}

TEST(Conv2dOp, Validation) {
  EXPECT_THROW(Conv2dOp(Tensor({2, 2}), Tensor{}), std::invalid_argument);
  EXPECT_THROW(Conv2dOp(Tensor({2, 1, 1, 1}), Tensor{}, 0), std::invalid_argument);
  EXPECT_THROW(Conv2dOp(Tensor({3, 1, 1, 1}), Tensor{}, 1, 0, 2), std::invalid_argument);
  Conv2dOp op(Tensor({1, 2, 1, 1}), Tensor{});
  Tensor bad({1, 3, 2, 2});
  EXPECT_THROW(op.forward(single(bad)), std::invalid_argument);
}

TEST(MatMulOp, TwoByTwo) {
  MatMulOp op;
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  const std::array<const Tensor*, 2> in = {&a, &b};
  Tensor y = op.forward(in);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 19.0f);
  EXPECT_FLOAT_EQ(y.at({0, 1}), 22.0f);
  EXPECT_FLOAT_EQ(y.at({1, 0}), 43.0f);
  EXPECT_FLOAT_EQ(y.at({1, 1}), 50.0f);
}

TEST(MatMulOp, BatchedAndTransposed) {
  MatMulOp op(/*batched=*/true, /*transpose_b=*/true);
  EXPECT_EQ(op.kind(), OpKind::kBatchMatMul);
  // A [2,1,2] x B^T where B [2,1,2]: result [2,1,1] of dot products.
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({2, 1, 2}, {5, 6, 7, 8});
  const std::array<const Tensor*, 2> in = {&a, &b};
  Tensor y = op.forward(in);
  ASSERT_EQ(y.shape(), (Shape{2, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 17.0f);  // 1*5+2*6
  EXPECT_FLOAT_EQ(y[1], 53.0f);  // 3*7+4*8
}

TEST(MatMulOp, Validation) {
  MatMulOp op;
  Tensor a({2, 3});
  Tensor b({4, 2});
  const std::array<const Tensor*, 2> in = {&a, &b};
  EXPECT_THROW((void)op.forward(in), std::invalid_argument);  // inner mismatch
  Tensor c({2, 2, 2});
  const std::array<const Tensor*, 2> in2 = {&a, &c};
  EXPECT_THROW((void)op.forward(in2), std::invalid_argument);  // rank mismatch
}

TEST(EmbeddingOp, Lookup) {
  EmbeddingOp op(Tensor({3, 2}, {0, 1, 10, 11, 20, 21}));
  Tensor idx({2}, {2.0f, 0.0f});
  Tensor y = op.forward(single(idx));
  ASSERT_EQ(y.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(y[0], 20.0f);
  EXPECT_FLOAT_EQ(y[1], 21.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
}

TEST(EmbeddingOp, OutOfRangeThrows) {
  EmbeddingOp op(Tensor({3, 2}));
  Tensor idx({1}, {3.0f});
  EXPECT_THROW((void)op.forward(single(idx)), std::out_of_range);
  Tensor neg({1}, {-1.0f});
  EXPECT_THROW((void)op.forward(single(neg)), std::out_of_range);
}

TEST(LayerNormOp, NormalizesRow) {
  LayerNormOp op(Tensor({2}, {1.0f, 1.0f}), Tensor({2}, {0.0f, 0.0f}));
  Tensor x({1, 2}, {1.0f, 3.0f});  // mean 2, var 1
  Tensor y = op.forward(single(x));
  EXPECT_NEAR(y[0], -1.0f, 1e-4f);
  EXPECT_NEAR(y[1], 1.0f, 1e-4f);
}

TEST(LayerNormOp, GammaBetaApplied) {
  LayerNormOp op(Tensor({2}, {2.0f, 2.0f}), Tensor({2}, {5.0f, 5.0f}));
  Tensor x({1, 2}, {1.0f, 3.0f});
  Tensor y = op.forward(single(x));
  EXPECT_NEAR(y[0], 3.0f, 1e-3f);
  EXPECT_NEAR(y[1], 7.0f, 1e-3f);
}

TEST(BatchNorm2dOp, NormalizesWithRunningStats) {
  BatchNorm2dOp op(Tensor({1}, {1.0f}), Tensor({1}, {0.0f}), Tensor({1}, {2.0f}),
                   Tensor({1}, {4.0f}), 0.0f);
  Tensor x({1, 1, 1, 2}, {2.0f, 4.0f});
  Tensor y = op.forward(single(x));
  EXPECT_NEAR(y[0], 0.0f, 1e-5f);
  EXPECT_NEAR(y[1], 1.0f, 1e-5f);
}

TEST(BatchNorm2dOp, CalibrationReestimatesStats) {
  // Start with wrong stats; calibrate on data with mean 10, var 0.25.
  BatchNorm2dOp op(Tensor({1}, {1.0f}), Tensor({1}, {0.0f}), Tensor({1}, {0.0f}),
                   Tensor({1}, {1.0f}));
  op.begin_calibration();
  Tensor batch({1, 1, 2, 2}, {9.5f, 10.5f, 9.5f, 10.5f});
  (void)op.forward(single(batch));
  op.finish_calibration();
  EXPECT_NEAR(op.running_mean()[0], 10.0f, 1e-4f);
  EXPECT_NEAR(op.running_var()[0], 0.25f, 1e-4f);
  EXPECT_FALSE(op.calibrating());
}

TEST(BatchNorm2dOp, CalibrationAveragesAcrossBatches) {
  BatchNorm2dOp op(Tensor({1}, {1.0f}), Tensor({1}, {0.0f}), Tensor({1}, {0.0f}),
                   Tensor({1}, {1.0f}));
  op.begin_calibration();
  Tensor b1({1, 1, 1, 1}, {2.0f});
  Tensor b2({1, 1, 1, 1}, {4.0f});
  (void)op.forward(single(b1));
  (void)op.forward(single(b2));
  op.finish_calibration();
  EXPECT_NEAR(op.running_mean()[0], 3.0f, 1e-5f);
}

TEST(BinaryOp, AddAndMul) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {10, 20});
  const std::array<const Tensor*, 2> in = {&a, &b};
  Tensor s = BinaryOp(OpKind::kAdd).forward(in);
  EXPECT_FLOAT_EQ(s[1], 22.0f);
  Tensor p = BinaryOp(OpKind::kMul).forward(in);
  EXPECT_FLOAT_EQ(p[1], 40.0f);
  EXPECT_THROW(BinaryOp(OpKind::kRelu), std::invalid_argument);
}

TEST(ActivationOp, Relu) {
  Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  Tensor y = ActivationOp(OpKind::kRelu).forward(single(x));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

float relu_reference(float v) { return v > 0.0f ? v : 0.0f; }
float leaky_relu_reference(float v) { return v > 0.0f ? v : 0.01f * v; }
float hard_swish_reference(float v) {
  const float r = std::min(6.0f, std::max(0.0f, v + 3.0f));
  return v * r / 6.0f;
}

TEST(ActivationOp, ReluLeakyReluAndHardSwishMatchTheScalarFormulasBitForBit) {
  // elementwise.cpp builds at -O3, where these loops vectorize; each lane
  // must still give the scalar expression's bits, specials included.
  using L = std::numeric_limits<float>;
  const float specials[] = {0.0f,         -0.0f,          L::quiet_NaN(),  -L::quiet_NaN(),
                            std::bit_cast<float>(0x7fc12345u), L::signaling_NaN(),
                            L::infinity(), -L::infinity(), L::denorm_min(), -L::denorm_min(),
                            L::min() / 2, -L::min() / 2,  L::min(),        -L::min(),
                            L::max(),     -L::max(),      3.0f,            -3.0f,
                            std::nextafter(-3.0f, 0.0f),  3.0f - 6.0f,     6.0f,
                            1e-38f,       -1e-38f,        0.5f,            -0.5f};
  Rng rng(59);
  std::vector<float> values(std::begin(specials), std::end(specials));
  for (int i = 0; i < 200; ++i) values.push_back(rng.normal(0.0f, 4.0f));
  const struct {
    OpKind kind;
    float (*reference)(float);
  } cases[] = {{OpKind::kRelu, relu_reference},
               {OpKind::kLeakyRelu, leaky_relu_reference},
               {OpKind::kHardSwish, hard_swish_reference}};
  for (const auto& c : cases) {
    // Every length up to 40 from a rotating start, so each special lands in
    // the vector body and in the remainder.
    for (std::size_t len = 1; len <= 40; ++len) {
      for (std::size_t start = 0; start + len <= values.size(); start += 7) {
        const std::vector<float> in(values.begin() + static_cast<std::ptrdiff_t>(start),
                                    values.begin() + static_cast<std::ptrdiff_t>(start + len));
        const Tensor y = ActivationOp(c.kind).forward(
            single(Tensor({static_cast<std::int64_t>(len)}, in)));
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(y[static_cast<std::int64_t>(i)]),
                    std::bit_cast<std::uint32_t>(c.reference(in[i])))
              << to_string(c.kind) << " x bits " << std::bit_cast<std::uint32_t>(in[i]);
        }
      }
    }
  }
}

TEST(ActivationOp, GeluReferencePoints) {
  Tensor x({3}, {0.0f, 1.0f, -1.0f});
  Tensor y = ActivationOp(OpKind::kGelu).forward(single(x));
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3f);
}

TEST(ActivationOp, SigmoidTanh) {
  Tensor x({1}, {0.0f});
  EXPECT_FLOAT_EQ(ActivationOp(OpKind::kSigmoid).forward(single(x))[0], 0.5f);
  EXPECT_FLOAT_EQ(ActivationOp(OpKind::kTanh).forward(single(x))[0], 0.0f);
}

TEST(SoftmaxOp, RowsSumToOne) {
  Tensor x({2, 3}, {1, 2, 3, 1000, 1000, 1000});
  Tensor y = SoftmaxOp().forward(single(x));
  EXPECT_NEAR(y[0] + y[1] + y[2], 1.0f, 1e-5f);
  EXPECT_GT(y[2], y[1]);
  // Large-value row is numerically stable and uniform.
  EXPECT_NEAR(y[3], 1.0f / 3.0f, 1e-5f);
}

TEST(ScaleOp, MultipliesByConstant) {
  Tensor x({2}, {1.0f, -2.0f});
  Tensor y = ScaleOp(0.5f).forward(single(x));
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_FLOAT_EQ(y[1], -1.0f);
}

TEST(ReshapeOp, PassthroughBatchAxis) {
  ReshapeOp op({0, -1});
  Tensor x({3, 2, 2});
  Tensor y = op.forward(single(x));
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
}

TEST(TransposeLastTwoOp, SwapsAxes) {
  TransposeLastTwoOp op;
  Tensor x({1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 3, 2}));
  EXPECT_FLOAT_EQ(y.at({0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 1}), 4.0f);
  EXPECT_FLOAT_EQ(y.at({0, 2, 1}), 6.0f);
}

TEST(GlobalAvgPoolOp, AveragesSpatial) {
  GlobalAvgPoolOp op;
  Tensor x({1, 2, 1, 2}, {1, 3, 10, 30});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 20.0f);
}

TEST(MaxPool2x2Op, TakesWindowMax) {
  MaxPool2x2Op op;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = op.forward(single(x));
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor odd({1, 1, 3, 3});
  EXPECT_THROW((void)op.forward(single(odd)), std::invalid_argument);
}

/// Runs `op` on `in` after freeing NaN-filled tensors of its output's size,
/// which the allocator tends to hand straight back, and expects every
/// output element written: finite, as every input here is. In an
/// AddressSanitizer build each unfilled output starts as NaN by itself
/// (Tensor::unfilled), so there an unwritten element always shows.
void expect_every_output_written(Op& op, const std::vector<const Tensor*>& in,
                                 const std::string& what) {
  const std::int64_t n = op.forward(in).numel();
  {
    std::vector<Tensor> dirt;
    for (int i = 0; i < 4; ++i) {
      dirt.push_back(Tensor::full({n}, std::numeric_limits<float>::quiet_NaN()));
    }
  }
  const Tensor y = op.forward(in);
  ASSERT_EQ(y.numel(), n) << what;
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(std::isfinite(y[i])) << what << " left element " << i << " unwritten";
  }
}

TEST(OpOutputs, OpsWithUnfilledOutputsWriteEveryElement) {
  // Linear, LayerNorm, BatchNorm, GroupNorm, Softmax and Conv2d allocate
  // their outputs without a zero fill, and Linear, MatMul and Conv2d their
  // scratch too; each must write all of it.
  Rng rng(61);
  const Tensor rows = randn(rng, {19, 12});
  LinearOp with_bias(randn(rng, {5, 12}), randn(rng, {5}));
  LinearOp no_bias(randn(rng, {5, 12}), Tensor{});
  expect_every_output_written(with_bias, {&rows}, "Linear with bias");
  expect_every_output_written(no_bias, {&rows}, "Linear without bias");
  LayerNormOp ln(randn(rng, {12}), randn(rng, {12}));
  expect_every_output_written(ln, {&rows}, "LayerNorm");
  SoftmaxOp softmax;
  expect_every_output_written(softmax, {&rows}, "Softmax");

  const Tensor a = randn(rng, {2, 3, 12});
  const Tensor b = randn(rng, {2, 5, 12});
  MatMulOp matmul(/*batched=*/true, /*transpose_b=*/true);
  expect_every_output_written(matmul, {&a, &b}, "MatMul transpose_b");

  const Tensor images = randn(rng, {2, 4, 7, 7});
  BatchNorm2dOp bn(randn(rng, {4}), randn(rng, {4}), randn(rng, {4}), Tensor({4}, 2.0f));
  expect_every_output_written(bn, {&images}, "BatchNorm");
  bn.begin_calibration();
  expect_every_output_written(bn, {&images}, "BatchNorm calibrating");
  bn.finish_calibration();
  GroupNormOp gn(2, randn(rng, {4}), randn(rng, {4}));
  expect_every_output_written(gn, {&images}, "GroupNorm");
  for (const int groups : {1, 2}) {
    for (const int stride : {1, 2}) {
      Conv2dOp conv_bias(randn(rng, {6, 4 / groups, 3, 3}), randn(rng, {6}), stride, 1, groups);
      Conv2dOp conv(randn(rng, {6, 4 / groups, 3, 3}), Tensor{}, stride, 1, groups);
      const std::string shape =
          " groups " + std::to_string(groups) + " stride " + std::to_string(stride);
      expect_every_output_written(conv_bias, {&images}, "Conv2d with bias" + shape);
      expect_every_output_written(conv, {&images}, "Conv2d without bias" + shape);
    }
  }
}

TEST(OpKinds, ClassificationMatchesPaperSchemes) {
  // Standard scheme ops (section 3.1).
  for (OpKind k : {OpKind::kLinear, OpKind::kConv2d, OpKind::kMatMul,
                   OpKind::kBatchMatMul, OpKind::kEmbedding}) {
    EXPECT_TRUE(is_compute_op(k)) << to_string(k);
    EXPECT_FALSE(is_extended_op(k)) << to_string(k);
  }
  // Extended scheme ops (section 3.2).
  for (OpKind k : {OpKind::kLayerNorm, OpKind::kBatchNorm, OpKind::kAdd, OpKind::kMul}) {
    EXPECT_TRUE(is_extended_op(k)) << to_string(k);
    EXPECT_FALSE(is_compute_op(k)) << to_string(k);
  }
  // Never-quantized ops.
  for (OpKind k : {OpKind::kRelu, OpKind::kSoftmax, OpKind::kReshape, OpKind::kInput}) {
    EXPECT_FALSE(is_quantizable_op(k)) << to_string(k);
  }
}

}  // namespace
}  // namespace fp8q
