// Linear, MatMul and Conv2d lower onto the GEMM microkernel (nn/gemm.h),
// and must be bit-identical to a naive loop reference at every dispatch
// tier and thread count: transposition, Conv2d's zero-bordered input copy
// and its grid copy-out only move data, never change any element's
// summation order.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// Restores tier and thread-count overrides even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() {
    reset_isa_tier();
    set_num_threads(0);  // 0 = restore the env/hardware default
  }
};

/// Runs `body` once per dispatch tier and thread count, with a label for
/// failure messages.
void for_each_tier_and_thread_count(const std::function<void(const std::string&)>& body) {
  DispatchGuard guard;
  for (IsaTier tier : {IsaTier::kScalar, IsaTier::kBatched, IsaTier::kNative, IsaTier::kWide}) {
    for (int threads : {1, 4, 8}) {
      set_isa_tier(tier);
      set_num_threads(threads);
      body(std::string(to_string(tier)) + " threads " + std::to_string(threads));
    }
  }
}

/// Naive matmul over the last two axes; k-ascending accumulation, the same
/// order the production kernel must preserve.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool transpose_b) {
  const std::int64_t m = a.size(-2);
  const std::int64_t k = a.size(-1);
  const std::int64_t n = transpose_b ? b.size(-2) : b.size(-1);
  const std::int64_t batch = a.numel() / (m * k);
  Shape out_shape = a.shape();
  out_shape.back() = n;
  Tensor y(out_shape);
  const auto ad = a.flat();
  const auto bd = b.flat();
  auto yd = y.flat();
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float av = ad[static_cast<std::size_t>(bi * m * k + i * k + kk)];
          const float bv = transpose_b
                               ? bd[static_cast<std::size_t>(bi * n * k + j * k + kk)]
                               : bd[static_cast<std::size_t>(bi * k * n + kk * n + j)];
          acc += av * bv;
        }
        yd[static_cast<std::size_t>(bi * m * n + i * n + j)] = acc;
      }
    }
  }
  return y;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fa[i]), std::bit_cast<std::uint32_t>(fb[i]))
        << what << " at " << i;
  }
}

TEST(BlockedMatMul, MatchesNaiveAcrossShapesAndFlags) {
  Rng rng(101);
  struct Case {
    std::int64_t m, k, n;
    bool batched;
    bool transpose_b;
  };
  // Odd sizes exercise the 4-row and 8-column remainders.
  const Case cases[] = {
      {1, 1, 1, false, false},  {3, 5, 7, false, false},  {4, 8, 4, false, true},
      {7, 33, 13, false, false}, {7, 33, 13, false, true}, {5, 17, 9, true, false},
      {6, 64, 31, true, true},   {65, 40, 50, false, false},
  };
  for (const auto& c : cases) {
    const std::int64_t batch = c.batched ? 3 : 1;
    Tensor a = c.batched ? randn(rng, {batch, c.m, c.k}) : randn(rng, {c.m, c.k});
    const Shape b_shape = c.batched
                              ? (c.transpose_b ? Shape{batch, c.n, c.k} : Shape{batch, c.k, c.n})
                              : (c.transpose_b ? Shape{c.n, c.k} : Shape{c.k, c.n});
    Tensor b = randn(rng, b_shape);
    MatMulOp op(c.batched, c.transpose_b);
    const std::array<const Tensor*, 2> in = {&a, &b};
    const Tensor ref = naive_matmul(a, b, c.transpose_b);
    for_each_tier_and_thread_count([&](const std::string& what) {
      expect_bitwise_equal(op.forward(in), ref, what);
    });
  }
}

TEST(BlockedLinear, MatchesNaiveWithAndWithoutBias) {
  Rng rng(202);
  for (const auto& [rows, in_f, out_f] : std::vector<std::array<std::int64_t, 3>>{
           {1, 1, 1}, {5, 13, 9}, {33, 64, 17}, {130, 48, 96}}) {
    for (bool with_bias : {true, false}) {
      Tensor x = randn(rng, {rows, in_f});
      Tensor w = randn(rng, {out_f, in_f});
      Tensor bias = with_bias ? randn(rng, {out_f}) : Tensor{};

      Tensor ref({rows, out_f});
      {
        const auto xd = x.flat();
        const auto wd = w.flat();
        auto rd = ref.flat();
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t o = 0; o < out_f; ++o) {
            float acc = with_bias ? bias[o] : 0.0f;
            for (std::int64_t i = 0; i < in_f; ++i) {
              acc += xd[static_cast<std::size_t>(r * in_f + i)] *
                     wd[static_cast<std::size_t>(o * in_f + i)];
            }
            rd[static_cast<std::size_t>(r * out_f + o)] = acc;
          }
        }
      }
      LinearOp op(w, bias);
      for_each_tier_and_thread_count([&](const std::string& what) {
        expect_bitwise_equal(op.forward(std::array{&x}), ref, what);
      });
    }
  }
}

struct ConvCase {
  std::int64_t n, ic, h, w, oc, kh, kw;
  int stride, padding, groups;
  bool with_bias;
};

/// Naive conv that skips padded taps. With a bias that is not -0.0f and
/// finite weights, skipping them and adding them as 0 * w agree bit for
/// bit (docs/KERNELS.md).
Tensor naive_conv(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  const ConvCase& c) {
  const std::int64_t oh = (c.h + 2 * c.padding - c.kh) / c.stride + 1;
  const std::int64_t ow = (c.w + 2 * c.padding - c.kw) / c.stride + 1;
  const std::int64_t icg = c.ic / c.groups;
  const std::int64_t ocg = c.oc / c.groups;
  Tensor ref({c.n, c.oc, oh, ow});
  const auto xd = x.flat();
  const auto wd = weight.flat();
  auto rd = ref.flat();
  for (std::int64_t b = 0; b < c.n; ++b) {
    for (std::int64_t o = 0; o < c.oc; ++o) {
      const std::int64_t g = o / ocg;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float acc = c.with_bias ? bias[o] : 0.0f;
          for (std::int64_t ci = 0; ci < icg; ++ci) {
            for (std::int64_t ky = 0; ky < c.kh; ++ky) {
              const std::int64_t iy = oy * c.stride + ky - c.padding;
              if (iy < 0 || iy >= c.h) continue;
              for (std::int64_t kx = 0; kx < c.kw; ++kx) {
                const std::int64_t ix = ox * c.stride + kx - c.padding;
                if (ix < 0 || ix >= c.w) continue;
                acc += xd[static_cast<std::size_t>(((b * c.ic + g * icg + ci) * c.h + iy) *
                                                       c.w +
                                                   ix)] *
                       wd[static_cast<std::size_t>(((o * icg + ci) * c.kh + ky) * c.kw + kx)];
              }
            }
          }
          rd[static_cast<std::size_t>(((b * c.oc + o) * oh + oy) * ow + ox)] = acc;
        }
      }
    }
  }
  return ref;
}

/// Cycles +Inf, -Inf and NaN along the four edges of every input plane.
/// The NaN is the host's own Inf - Inf, so every NaN the convolution
/// makes has one bit pattern whichever operand order an add takes.
void put_nonfinite_edges(Tensor& x) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const std::array<float, 3> values = {inf, -inf, inf - inf};
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  auto xd = x.flat();
  for (std::int64_t p = 0; p < x.size(0) * x.size(1); ++p) {
    float* plane = xd.data() + p * h * w;
    for (std::int64_t i = 0; i < w; ++i) {
      plane[i] = values[static_cast<std::size_t>(i % 3)];
      plane[(h - 1) * w + i] = values[static_cast<std::size_t>((i + 1) % 3)];
    }
    for (std::int64_t i = 0; i < h; ++i) {
      plane[i * w] = values[static_cast<std::size_t>((i + 2) % 3)];
      plane[i * w + w - 1] = values[static_cast<std::size_t>(i % 3)];
    }
  }
}

TEST(BlockedConv, MatchesNaiveAcrossStridePaddingGroups) {
  Rng rng(303);
  const ConvCase cases[] = {
      {1, 1, 5, 5, 1, 3, 3, 1, 0, 1, true},
      {2, 3, 9, 7, 4, 3, 3, 1, 1, 1, true},
      {1, 4, 8, 8, 6, 1, 1, 1, 0, 2, true},
      {2, 4, 11, 13, 8, 3, 5, 2, 2, 4, true},
      {1, 2, 6, 6, 2, 3, 3, 2, 0, 1, true},
      // Depthwise: one channel per group, no bias.
      {3, 6, 7, 9, 6, 3, 3, 1, 1, 6, false},
      // 1x1, unpadded, ungrouped: the zero-bordered copy has no border.
      {5, 7, 6, 5, 9, 1, 1, 1, 0, 1, true},
      // Stride 2 with padding and kh != kw.
      {2, 3, 10, 9, 5, 5, 3, 2, 1, 1, true},
      // The suite's shape: 12 -> 12 channels, 10x10, 3x3, padding 1.
      {2, 12, 10, 10, 12, 3, 3, 1, 1, 1, true},
      // The suite's depthwise shape, with a bias.
      {2, 12, 10, 10, 12, 3, 3, 1, 1, 12, true},
      // 1x1 with padding 2: the two-wide output border is the bias alone.
      {2, 3, 5, 6, 4, 1, 1, 1, 2, 1, true},
      // Stride 3 with padding and h != w: the grid keeps every third row
      // and column.
      {2, 3, 11, 8, 4, 3, 3, 3, 1, 1, true},
  };
  for (const auto& c : cases) {
    // Every case also runs with non-finite values on each image edge: a
    // discarded grid column reads the next row's first value, so a wrong
    // copy-out would carry an Inf or NaN into a finite output.
    for (const bool nonfinite : {false, true}) {
      Tensor x = randn(rng, {c.n, c.ic, c.h, c.w});
      if (nonfinite) put_nonfinite_edges(x);
      Tensor weight = randn(rng, {c.oc, c.ic / c.groups, c.kh, c.kw});
      Tensor bias = c.with_bias ? randn(rng, {c.oc}) : Tensor{};
      Conv2dOp op(weight, bias, c.stride, c.padding, c.groups);
      const Tensor ref = naive_conv(x, weight, bias, c);
      for_each_tier_and_thread_count([&](const std::string& what) {
        expect_bitwise_equal(op.forward(std::array{&x}), ref,
                             what + (nonfinite ? " non-finite edges" : ""));
      });
    }
  }
}

TEST(BlockedConv, PaddedTapTurnsANegativeZeroBiasPositive) {
  // The padded-tap policy (docs/KERNELS.md): the zero border adds each
  // padded tap as a +0 * w term rather than skipping it. The one visible difference
  // is a -0.0f accumulator: -0 + +0 is +0. A 3x3 window over a 1x1 input
  // with padding 1 has 8 padded taps around the one real tap, so with a
  // -0.0f bias and a -0.0f input the output is +0 here, where skipping
  // the padded taps would give -0 + (-0 * 1) = -0. Without padding the
  // sign survives.
  const Tensor x({1, 1, 1, 1}, -0.0f);
  const Tensor bias({1}, -0.0f);
  Conv2dOp padded(Tensor({1, 1, 3, 3}, 1.0f), bias, /*stride=*/1, /*padding=*/1);
  Conv2dOp unpadded(Tensor({1, 1, 1, 1}, 1.0f), bias);
  for_each_tier_and_thread_count([&](const std::string& what) {
    const Tensor y = padded.forward(std::array{&x});
    ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1})) << what;
    EXPECT_EQ(y[0], 0.0f) << what;
    EXPECT_FALSE(std::signbit(y[0])) << what;
    EXPECT_TRUE(std::signbit(unpadded.forward(std::array{&x})[0])) << what;
  });
}

}  // namespace
}  // namespace fp8q
