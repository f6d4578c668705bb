// The GEMM microkernel's contract (nn/gemm.h, docs/KERNELS.md): every
// dispatch tier reproduces the naive ascending-k loop bit for bit, on odd
// shapes that run every 4-row and 8-column tail path, with b's rows dense
// or from an offset table (overlapping, as Conv2d's taps are), and any
// split of the rows into separate calls gives the same bits.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

constexpr IsaTier kTiers[] = {IsaTier::kScalar, IsaTier::kBatched, IsaTier::kNative};

/// Restores the tier override even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() { reset_isa_tier(); }
};

std::vector<float> random_values(std::uint64_t seed, std::int64_t count) {
  Rng rng(seed);
  const Tensor t = randn(rng, {count});
  return {t.flat().begin(), t.flat().end()};
}

/// y[r][j] += sum_kk a[r][kk] * b[kk][j], one element at a time.
void naive_gemm(const std::vector<float>& a, const std::vector<float>& b, std::vector<float>& y,
                std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = y[static_cast<std::size_t>(r * n + j)];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<std::size_t>(r * k + kk)] * b[static_cast<std::size_t>(kk * n + j)];
      }
      y[static_cast<std::size_t>(r * n + j)] = acc;
    }
  }
}

/// The table form: row kk of b is the n floats from b + rows[kk].
void naive_table_gemm(const std::vector<float>& a, const std::vector<float>& b,
                      const std::vector<std::int64_t>& rows, std::vector<float>& y,
                      std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = y[static_cast<std::size_t>(r * n + j)];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<std::size_t>(r * k + kk)] *
               b[static_cast<std::size_t>(rows[static_cast<std::size_t>(kk)] + j)];
      }
      y[static_cast<std::size_t>(r * n + j)] = acc;
    }
  }
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " at " << i;
  }
}

struct Shape3 {
  std::int64_t m, n, k;
};

// m covers full 4-row blocks plus every tail length; n covers full
// 8-column strips, every tail length and more than one 64-column tile.
constexpr Shape3 kOddShapes[] = {{1, 1, 1},  {2, 7, 3},   {3, 9, 5},    {4, 8, 16},
                                 {5, 15, 1}, {6, 17, 33}, {7, 65, 12},  {9, 70, 7},
                                 {13, 25, 40}};

std::string label(IsaTier tier, const Shape3& s) {
  return std::string(to_string(tier)) + " " + std::to_string(s.m) + "x" +
         std::to_string(s.n) + "x" + std::to_string(s.k);
}

TEST(GemmKernel, EveryTierMatchesTheNaiveLoopOnOddShapes) {
  for (const Shape3& s : kOddShapes) {
    const auto a = random_values(11, s.m * s.k);
    const auto b = random_values(12, s.k * s.n);
    // y's incoming value is the first term of every sum.
    const auto y0 = random_values(13, s.m * s.n);
    std::vector<float> want = y0;
    naive_gemm(a, b, want, s.m, s.n, s.k);
    for (IsaTier tier : kTiers) {
      std::vector<float> y = y0;
      gemm_kernel(tier)(a.data(), b.data(), y.data(), s.m, s.n, s.k);
      expect_bitwise_equal(y, want, label(tier, s));
    }
  }
}

TEST(GemmKernel, EveryTierMatchesTheNaiveLoopWithOverlappingTableRows) {
  for (const Shape3& s : kOddShapes) {
    // Conv2d's kx taps: rows kk and kk + 1 start one float apart, in runs
    // of three, each run one "padded row" of n + 2 floats below the last.
    std::vector<std::int64_t> rows(static_cast<std::size_t>(s.k));
    for (std::int64_t kk = 0; kk < s.k; ++kk) {
      rows[static_cast<std::size_t>(kk)] = (kk / 3) * (s.n + 2) + kk % 3;
    }
    const auto a = random_values(14, s.m * s.k);
    const auto b = random_values(15, rows.back() + s.n);
    const auto y0 = random_values(16, s.m * s.n);
    std::vector<float> want = y0;
    naive_table_gemm(a, b, rows, want, s.m, s.n, s.k);
    for (IsaTier tier : kTiers) {
      std::vector<float> y = y0;
      gemm_kernel(tier)(a.data(), b.data(), rows.data(), y.data(), s.m, s.n, s.k);
      expect_bitwise_equal(y, want, label(tier, s) + " table");
    }
  }
}

TEST(GemmKernel, DenseFormEqualsTheTableFormAtRowStrideN) {
  for (const Shape3& s : kOddShapes) {
    std::vector<std::int64_t> rows(static_cast<std::size_t>(s.k));
    for (std::int64_t kk = 0; kk < s.k; ++kk) rows[static_cast<std::size_t>(kk)] = kk * s.n;
    const auto a = random_values(17, s.m * s.k);
    const auto b = random_values(18, s.k * s.n);
    const auto y0 = random_values(19, s.m * s.n);
    for (IsaTier tier : kTiers) {
      const GemmKernel kernel = gemm_kernel(tier);
      std::vector<float> dense = y0;
      std::vector<float> table = y0;
      kernel(a.data(), b.data(), dense.data(), s.m, s.n, s.k);
      kernel(a.data(), b.data(), rows.data(), table.data(), s.m, s.n, s.k);
      expect_bitwise_equal(table, dense, label(tier, s) + " dense vs table");
    }
  }
}

TEST(GemmKernel, AnyRowSplitGivesTheSameBits) {
  DispatchGuard guard;
  const Shape3 s{29, 37, 45};
  const auto a = random_values(21, s.m * s.k);
  const auto b = random_values(22, s.k * s.n);
  std::vector<float> want(static_cast<std::size_t>(s.m * s.n), 0.0f);
  gemm_kernel(IsaTier::kScalar)(a.data(), b.data(), want.data(), s.m, s.n, s.k);
  for (IsaTier tier : kTiers) {
    const GemmKernel kernel = gemm_kernel(tier);
    // Row slices of every size, one kernel call each: 4-row blocks and
    // row tails form differently than in the whole-matrix call.
    for (std::int64_t rows = 1; rows <= s.m; ++rows) {
      std::vector<float> y(want.size(), 0.0f);
      for (std::int64_t lo = 0; lo < s.m; lo += rows) {
        const std::int64_t hi = std::min(lo + rows, s.m);
        kernel(a.data() + lo * s.k, b.data(), y.data() + lo * s.n, hi - lo, s.n, s.k);
      }
      expect_bitwise_equal(y, want, label(tier, s) + " slices of " + std::to_string(rows));
    }
  }
}

TEST(GemmKernel, NativeTierClampsWhenUnavailable) {
  DispatchGuard guard;
  set_isa_tier(IsaTier::kNative);
  if (isa_native_available()) {
    EXPECT_EQ(isa_tier(), IsaTier::kNative);
    EXPECT_STREQ(isa_label(), "native:avx2");
  } else {
    EXPECT_EQ(isa_tier(), IsaTier::kBatched);
  }
}

TEST(Transpose, SwapsRowsAndColumns) {
  const std::vector<float> src = {1, 2, 3, 4, 5, 6};  // [2, 3]
  std::vector<float> dst(6);
  transpose(src.data(), 2, 3, dst.data());
  EXPECT_EQ(dst, (std::vector<float>{1, 4, 2, 5, 3, 6}));  // [3, 2]
}

}  // namespace
}  // namespace fp8q
