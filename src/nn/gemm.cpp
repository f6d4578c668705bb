#include "nn/gemm.h"

#include <algorithm>

namespace fp8q {
namespace {

// Column-tile width for the portable tiers: wide enough that the
// accumulate loops auto-vectorize cleanly, small enough that four rows of
// accumulators stay in L1.
constexpr std::int64_t kTileN = 64;

// ---------------------------------------------------------------------------
// kScalar tier: the reference every other tier is tested bit-equal
// against, so it favors obviousness over speed: one row at a time, each
// output element's ascending kk-summation clearly visible.
// ---------------------------------------------------------------------------

void gemm_scalar_tier(const float* a, const float* b, float* y, std::int64_t m,
                      std::int64_t n, std::int64_t k) {
  float acc[kTileN];
  for (std::int64_t r = 0; r < m; ++r) {
    const float* ar = a + r * k;
    float* yr = y + r * n;
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
      const std::int64_t jw = std::min(kTileN, n - j0);
      for (std::int64_t j = 0; j < jw; ++j) acc[j] = yr[j0 + j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ar[kk];
        const float* brow = b + kk * n + j0;
        for (std::int64_t j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      for (std::int64_t j = 0; j < jw; ++j) yr[j0 + j] = acc[j];
    }
  }
}

// ---------------------------------------------------------------------------
// kBatched tier: four rows share each pass over a b row, in loops shaped
// for the auto-vectorizer. This TU is compiled -O3 -ffp-contract=off, so
// each acc update is an exact mul+add in both the scalar and the vector
// lowering.
// ---------------------------------------------------------------------------

void gemm_batched_tier(const float* a, const float* b, float* y, std::int64_t m,
                       std::int64_t n, std::int64_t k) {
  float acc0[kTileN];
  float acc1[kTileN];
  float acc2[kTileN];
  float acc3[kTileN];
  std::int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const float* a0 = a + (r + 0) * k;
    const float* a1 = a + (r + 1) * k;
    const float* a2 = a + (r + 2) * k;
    const float* a3 = a + (r + 3) * k;
    float* y0 = y + (r + 0) * n;
    float* y1 = y + (r + 1) * n;
    float* y2 = y + (r + 2) * n;
    float* y3 = y + (r + 3) * n;
    for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
      const std::int64_t jw = std::min(kTileN, n - j0);
      for (std::int64_t j = 0; j < jw; ++j) {
        acc0[j] = y0[j0 + j];
        acc1[j] = y1[j0 + j];
        acc2[j] = y2[j0 + j];
        acc3[j] = y3[j0 + j];
      }
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * n + j0;
        const float av0 = a0[kk];
        const float av1 = a1[kk];
        const float av2 = a2[kk];
        const float av3 = a3[kk];
        for (std::int64_t j = 0; j < jw; ++j) {
          const float bv = brow[j];
          acc0[j] += av0 * bv;
          acc1[j] += av1 * bv;
          acc2[j] += av2 * bv;
          acc3[j] += av3 * bv;
        }
      }
      for (std::int64_t j = 0; j < jw; ++j) {
        y0[j0 + j] = acc0[j];
        y1[j0 + j] = acc1[j];
        y2[j0 + j] = acc2[j];
        y3[j0 + j] = acc3[j];
      }
    }
  }
  if (r < m) gemm_scalar_tier(a + r * k, b, y + r * n, m - r, n, k);
}

}  // namespace

GemmKernel gemm_kernel(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return gemm_scalar_tier;
    case IsaTier::kBatched:
      return gemm_batched_tier;
    case IsaTier::kNative:
#if defined(FP8Q_GEMM_AVX2_TU)
      if (isa_native_available()) return detail::gemm_kernel_avx2();
#endif
      return gemm_batched_tier;
  }
  return gemm_scalar_tier;
}

void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace fp8q
