// Cross-operator equivalence properties: independent implementations must
// agree on overlapping semantics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "metrics/metrics.h"
#include "nn/conv.h"
#include "nn/elementwise.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "nn/shape_ops.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// One operand for an op's forward(), read in place.
std::array<const Tensor*, 1> single(const Tensor& t) { return {&t}; }

TEST(Equivalence, OneByOneConvMatchesLinearPerPixel) {
  // A 1x1 convolution is a Linear applied at every spatial location.
  Rng rng(3);
  const std::int64_t ic = 6;
  const std::int64_t oc = 5;
  Tensor wc = randn(rng, {oc, ic, 1, 1});
  Tensor bias = randn(rng, {oc});
  Conv2dOp conv(wc, bias, 1, 0);

  Tensor wl({oc, ic});
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t i = 0; i < ic; ++i) wl.at({o, i}) = wc.at({o, i, 0, 0});
  }
  LinearOp linear(wl, bias);

  Tensor x = randn(rng, {2, ic, 4, 4});
  const Tensor yc = conv.forward(single(x));

  // Rearrange [n, c, h, w] -> [n*h*w, c] manually and run the Linear.
  Tensor xl({2 * 4 * 4, ic});
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t c = 0; c < ic; ++c) {
      for (std::int64_t p = 0; p < 16; ++p) {
        xl.at({n * 16 + p, c}) = x.at({n, c, p / 4, p % 4});
      }
    }
  }
  const Tensor yl = linear.forward(single(xl));
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t o = 0; o < oc; ++o) {
      for (std::int64_t p = 0; p < 16; ++p) {
        EXPECT_NEAR(yc.at({n, o, p / 4, p % 4}), yl.at({n * 16 + p, o}), 1e-4f);
      }
    }
  }
}

TEST(Equivalence, LinearMatchesMatMulWithTransposedWeight) {
  // x W^T via LinearOp == MatMulOp(transpose_b) on the same operands.
  Rng rng(5);
  Tensor w = randn(rng, {7, 9});
  Tensor x = randn(rng, {4, 9});
  LinearOp lin(w, Tensor{});
  MatMulOp mm(false, /*transpose_b=*/true);
  const std::array<const Tensor*, 2> in = {&x, &w};
  const Tensor a = lin.forward(single(x));
  const Tensor b = mm.forward(in);
  EXPECT_LT(max_abs_error(a.flat(), b.flat()), 1e-5);
}

TEST(Equivalence, TransposedMatMulMatchesExplicitTranspose) {
  Rng rng(7);
  Tensor a = randn(rng, {2, 3, 5});
  Tensor b = randn(rng, {2, 4, 5});
  MatMulOp fused(true, /*transpose_b=*/true);
  const std::array<const Tensor*, 2> in1 = {&a, &b};
  const Tensor y1 = fused.forward(in1);

  TransposeLastTwoOp tr;
  const Tensor bt = tr.forward(single(b));
  MatMulOp plain(true, false);
  const std::array<const Tensor*, 2> in2 = {&a, &bt};
  const Tensor y2 = plain.forward(in2);
  EXPECT_LT(max_abs_error(y1.flat(), y2.flat()), 1e-5);
}

TEST(Equivalence, DepthwiseConvMatchesPerChannelDenseConv) {
  // groups == channels conv equals a dense conv whose cross-channel taps
  // are zero.
  Rng rng(9);
  const std::int64_t c = 4;
  Tensor wd = randn(rng, {c, 1, 3, 3});
  Conv2dOp depthwise(wd, Tensor{}, 1, 1, static_cast<int>(c));

  Tensor dense(Shape{c, c, 3, 3});
  for (std::int64_t o = 0; o < c; ++o) {
    for (std::int64_t ky = 0; ky < 3; ++ky) {
      for (std::int64_t kx = 0; kx < 3; ++kx) {
        dense.at({o, o, ky, kx}) = wd.at({o, 0, ky, kx});
      }
    }
  }
  Conv2dOp full(dense, Tensor{}, 1, 1, 1);

  Tensor x = randn(rng, {2, c, 6, 6});
  EXPECT_LT(max_abs_error(depthwise.forward(single(x)).flat(),
                          full.forward(single(x)).flat()),
            1e-5);
}

TEST(Equivalence, GlobalAvgPoolMatchesManualMean) {
  Rng rng(11);
  Tensor x = randn(rng, {3, 5, 4, 4});
  const Tensor y = GlobalAvgPoolOp().forward(single(x));
  for (std::int64_t n = 0; n < 3; ++n) {
    for (std::int64_t c = 0; c < 5; ++c) {
      double s = 0.0;
      for (std::int64_t i = 0; i < 4; ++i) {
        for (std::int64_t j = 0; j < 4; ++j) s += x.at({n, c, i, j});
      }
      EXPECT_NEAR(y.at({n, c}), s / 16.0, 1e-5);
    }
  }
}

TEST(Equivalence, UpsampleThenPoolIsIdentity) {
  // MaxPool2x2(Upsample2x(x)) == x for nearest-neighbour upsampling.
  Rng rng(13);
  Tensor x = randn(rng, {2, 3, 5, 5});
  Upsample2xOp up;
  MaxPool2x2Op pool;
  const Tensor y = pool.forward(single(up.forward(single(x))));
  EXPECT_EQ(max_abs_error(x.flat(), y.flat()), 0.0);
}

TEST(Equivalence, SoftmaxShiftInvariance) {
  Rng rng(15);
  Tensor x = randn(rng, {4, 8});
  Tensor shifted = x;
  shifted.add_scalar(123.0f);
  SoftmaxOp sm;
  EXPECT_LT(max_abs_error(sm.forward(single(x)).flat(),
                          sm.forward(single(shifted)).flat()),
            1e-5);
}

TEST(Equivalence, ScaleOpMatchesTensorScale) {
  Rng rng(17);
  Tensor x = randn(rng, {32});
  const Tensor y = ScaleOp(0.37f).forward(single(x));
  Tensor manual = x;
  manual.scale(0.37f);
  EXPECT_EQ(max_abs_error(y.flat(), manual.flat()), 0.0);
}

}  // namespace
}  // namespace fp8q
