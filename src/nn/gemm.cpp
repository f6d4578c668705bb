#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

namespace fp8q {
namespace {

// Where each body finds row kk of b (nn/gemm.h): dense rows at stride n
// (Linear, MatMul), or a table of offsets (Conv2d's taps).
inline const float* b_row(const float* b, DenseRows /*rows*/, std::int64_t n, std::int64_t kk) {
  return b + kk * n;
}

inline const float* b_row(const float* b, TableRows rows, std::int64_t /*n*/, std::int64_t kk) {
  return b + rows.offsets[kk];
}

// Column-tile width for the scalar tier: wide enough that its accumulate
// loop vectorizes cleanly, small enough that the accumulators stay in L1.
constexpr std::int64_t kTileN = 64;

// ---------------------------------------------------------------------------
// kScalar tier: the reference every other tier is tested bit-equal
// against, so it favors obviousness over speed: one row at a time, each
// output element's ascending kk-summation clearly visible.
// ---------------------------------------------------------------------------

template <class Rows>
void gemm_scalar_tier(const float* a, const float* b, Rows rows, float* y, std::int64_t m,
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
        const float* brow = b_row(b, rows, n, kk) + j0;
        for (std::int64_t j = 0; j < jw; ++j) acc[j] += av * brow[j];
        // Keeps GCC's -O3 unroll-and-jam from fusing two kk steps into one
        // j loop: it cannot vectorize that loop for a table (the second
        // row becomes a gather), which ran the table form 3x slower.
        asm("");
      }
      for (std::int64_t j = 0; j < jw; ++j) yr[j0 + j] = acc[j];
    }
  }
}

// ---------------------------------------------------------------------------
// The vector tiers: one kernel body over a GCC vector-extension type V of
// 16 bytes (kBatched: SSE2 on x86-64, NEON on AArch64) or 32 bytes
// (kNative: AVX2). Four rows at a time (then one at a time for the row
// tail), an 8-column block of y stays in registers as 8/lanes V
// accumulators per row; each kk step loads the b strip once, broadcasts
// the rows' a values against it, and updates every accumulator with an
// explicit multiply then add, kk ascending. Columns past the last full
// block run one element per row. This TU is compiled -ffp-contract=off,
// so no multiply-add fuses into an FMA.
// ---------------------------------------------------------------------------

using Vec16 = float __attribute__((vector_size(16)));
using Vec32 = float __attribute__((vector_size(32)));

constexpr std::int64_t kRows = 4;
constexpr std::int64_t kCols = 8;

// Vectors pass by reference: a 32-byte vector passed or returned by value
// changes the ABI under AVX (-Wpsabi). memcpy is an unaligned load/store.
template <class V>
inline void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

/// y[0, R) += a[0, R) * b: R rows of a and y, all n columns.
template <class V, std::int64_t R, class Rows>
void gemm_rows(const float* a, const float* b, Rows rows, float* y, std::int64_t n,
               std::int64_t k) {
  constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
  constexpr std::int64_t kVecs = kCols / kLanes;  // vectors per row of a block
  std::int64_t j = 0;
  for (; j + kCols <= n; j += kCols) {
    // Fully unrolled, so acc lives in registers: left rolled, GCC keeps it
    // on the stack and copies each block in and out.
    V acc[R][kVecs];
#pragma GCC unroll 4
    for (std::int64_t i = 0; i < R; ++i) {
#pragma GCC unroll 2
      for (std::int64_t v = 0; v < kVecs; ++v) load(acc[i][v], y + i * n + j + v * kLanes);
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* bp = b_row(b, rows, n, kk) + j;
      for (std::int64_t v = 0; v < kVecs; ++v) {
        V bv;
        load(bv, bp + v * kLanes);
        for (std::int64_t i = 0; i < R; ++i) acc[i][v] = acc[i][v] + a[i * k + kk] * bv;
      }
    }
#pragma GCC unroll 4
    for (std::int64_t i = 0; i < R; ++i) {
#pragma GCC unroll 2
      for (std::int64_t v = 0; v < kVecs; ++v) store(y + i * n + j + v * kLanes, acc[i][v]);
    }
  }
  for (; j < n; ++j) {
    float acc[R];
    for (std::int64_t i = 0; i < R; ++i) acc[i] = y[i * n + j];
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float bv = b_row(b, rows, n, kk)[j];
      for (std::int64_t i = 0; i < R; ++i) acc[i] += a[i * k + kk] * bv;
    }
    for (std::int64_t i = 0; i < R; ++i) y[i * n + j] = acc[i];
  }
}

template <class V, class Rows>
void gemm_vector_tier(const float* a, const float* b, Rows rows, float* y, std::int64_t m,
                      std::int64_t n, std::int64_t k) {
  std::int64_t r = 0;
  for (; r + kRows <= m; r += kRows) gemm_rows<V, kRows>(a + r * k, b, rows, y + r * n, n, k);
  for (; r < m; ++r) gemm_rows<V, 1>(a + r * k, b, rows, y + r * n, n, k);
}

#if defined(__x86_64__)
// kNative: the 32-byte instantiation compiled for AVX2 (and not FMA).
// flatten inlines the whole body here, so it is generated under this
// function's target; gemm_kernel enters it only after the runtime probe.
template <class Rows>
[[gnu::target("avx2"), gnu::flatten]] void gemm_avx2_tier(const float* a, const float* b,
                                                          Rows rows, float* y, std::int64_t m,
                                                          std::int64_t n, std::int64_t k) {
  gemm_vector_tier<Vec32>(a, b, rows, y, m, n, k);
}
#endif

/// The one tier switch, instantiated once per way of finding b's rows.
template <class Rows>
GemmKernel::Body<Rows> tier_body(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return gemm_scalar_tier<Rows>;
    case IsaTier::kBatched:
      return gemm_vector_tier<Vec16, Rows>;
    case IsaTier::kNative:
#if defined(__x86_64__)
      if (isa_native_available()) return gemm_avx2_tier<Rows>;
#endif
      return gemm_vector_tier<Vec16, Rows>;
  }
  return gemm_scalar_tier<Rows>;
}

}  // namespace

GemmKernel gemm_kernel(IsaTier tier) {
  return {tier_body<DenseRows>(tier), tier_body<TableRows>(tier)};
}

void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace fp8q
