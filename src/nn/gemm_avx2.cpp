// kNative tier for x86-64: the AVX2 f32 GEMM microkernel.
//
// Compiled with -mavx2 (and NOT -mfma) for this TU only; entered only
// after the runtime probe confirms AVX2 (core/cpu_dispatch.h). Every
// multiply/add is an explicit _mm256_mul_ps / _mm256_add_ps, mirroring the
// scalar tier's mul+add per element, so results are bit-identical to the
// reference at every shape and thread count (docs/KERNELS.md).
#include "nn/gemm.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace fp8q {
namespace {

void gemm_avx2(const float* a, const float* b, float* y, std::int64_t m, std::int64_t n,
               std::int64_t k) {
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
    std::int64_t j = 0;
    // 4 rows x 8 columns: load each 8-column strip of b once per reduction
    // step and broadcast four a values against it.
    for (; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(y0 + j);
      __m256 acc1 = _mm256_loadu_ps(y1 + j);
      __m256 acc2 = _mm256_loadu_ps(y2 + j);
      __m256 acc3 = _mm256_loadu_ps(y3 + j);
      const float* bp = b + j;
      for (std::int64_t kk = 0; kk < k; ++kk, bp += n) {
        const __m256 bv = _mm256_loadu_ps(bp);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_set1_ps(a0[kk]), bv));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_set1_ps(a1[kk]), bv));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_set1_ps(a2[kk]), bv));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_set1_ps(a3[kk]), bv));
      }
      _mm256_storeu_ps(y0 + j, acc0);
      _mm256_storeu_ps(y1 + j, acc1);
      _mm256_storeu_ps(y2 + j, acc2);
      _mm256_storeu_ps(y3 + j, acc3);
    }
    for (; j < n; ++j) {
      float acc0 = y0[j];
      float acc1 = y1[j];
      float acc2 = y2[j];
      float acc3 = y3[j];
      const float* bp = b + j;
      for (std::int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc0 += a0[kk] * *bp;
        acc1 += a1[kk] * *bp;
        acc2 += a2[kk] * *bp;
        acc3 += a3[kk] * *bp;
      }
      y0[j] = acc0;
      y1[j] = acc1;
      y2[j] = acc2;
      y3[j] = acc3;
    }
  }
  for (; r < m; ++r) {
    const float* ar = a + r * k;
    float* yr = y + r * n;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(yr + j);
      const float* bp = b + j;
      for (std::int64_t kk = 0; kk < k; ++kk, bp += n) {
        acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(ar[kk]), _mm256_loadu_ps(bp)));
      }
      _mm256_storeu_ps(yr + j, acc);
    }
    for (; j < n; ++j) {
      float acc = yr[j];
      const float* bp = b + j;
      for (std::int64_t kk = 0; kk < k; ++kk, bp += n) acc += ar[kk] * *bp;
      yr[j] = acc;
    }
  }
}

}  // namespace

namespace detail {

GemmKernel gemm_kernel_avx2() { return gemm_avx2; }

}  // namespace detail
}  // namespace fp8q

#endif  // defined(__x86_64__)
