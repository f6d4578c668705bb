#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

namespace fp8q {
namespace {

// Where each body finds row kk of b (nn/gemm.h): dense rows at stride n
// (Linear, MatMul), or a table of offsets (Conv2d's taps).
struct DenseRows {};

struct TableRows {
  const std::int64_t* offsets;
};

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
// The vector tiers: one kernel body over GCC vector-extension types,
// templated on its register block: R rows by NV vectors of kBytes. Each
// block of y stays in registers as R x NV accumulators; each kk step
// loads the block's b strip once, broadcasts the rows' a values against
// it, and updates every accumulator with an explicit multiply then add,
// kk ascending. Columns past the last full block go by one vector, then
// one vector of each narrower width down to 16 bytes, then one column at
// a time; rows past the last full block go by 4, then 1. Every output's
// sum is the same at any block, so every tier gives the same bits. This
// TU is compiled -ffp-contract=off, so no multiply-add fuses into an FMA.
// ---------------------------------------------------------------------------

/// kBytes / 4 floats in one vector; at 4 bytes, a plain float.
template <int kBytes>
struct VecOf {
  // A typedef, not a using: GCC drops a dependent vector_size from an
  // alias declaration and leaves a plain float.
  typedef float type __attribute__((vector_size(kBytes)));
};

template <>
struct VecOf<4> {
  using type = float;
};

template <int kBytes>
using Vec = typename VecOf<kBytes>::type;

static_assert(sizeof(Vec<64>) == 64 && sizeof(Vec<4>) == sizeof(float));

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

/// Columns [j, j + NV vectors) of y[0, R) += a[0, R) * b.
template <class V, int R, int NV, class Rows>
inline void gemm_block(const float* a, const float* b, Rows rows, float* y, std::int64_t n,
                       std::int64_t k, std::int64_t j) {
  constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
  // Fully unrolled, so acc lives in registers: left rolled, GCC keeps it
  // on the stack and copies each block in and out.
  V acc[R][NV];
#pragma GCC unroll 8
  for (int i = 0; i < R; ++i) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) load(acc[i][v], y + i * n + j + v * kLanes);
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bp = b_row(b, rows, n, kk) + j;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      V bv;
      load(bv, bp + v * kLanes);
#pragma GCC unroll 8
      for (int i = 0; i < R; ++i) acc[i][v] = acc[i][v] + a[i * k + kk] * bv;
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < R; ++i) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) store(y + i * n + j + v * kLanes, acc[i][v]);
  }
}

/// Columns [j, n) of y[0, R): blocks of NV vectors of kBytes while they
/// fit, then the narrower steps of the cascade.
template <int kBytes, int R, int NV, class Rows>
void gemm_columns(const float* a, const float* b, Rows rows, float* y, std::int64_t n,
                  std::int64_t k, std::int64_t j) {
  constexpr std::int64_t kCols = NV * kBytes / static_cast<std::int64_t>(sizeof(float));
  for (; j + kCols <= n; j += kCols) gemm_block<Vec<kBytes>, R, NV>(a, b, rows, y, n, k, j);
  if constexpr (NV > 1) {
    gemm_columns<kBytes, R, 1>(a, b, rows, y, n, k, j);
  } else if constexpr (kBytes > 16) {
    gemm_columns<kBytes / 2, R, 1>(a, b, rows, y, n, k, j);
  } else if constexpr (kBytes == 16) {
    gemm_columns<sizeof(float), R, 1>(a, b, rows, y, n, k, j);
  }
}

/// y += a * b in blocks of R rows by NV vectors of kBytes, with the
/// cascading tails.
template <int kBytes, int R, int NV, class Rows>
void gemm_vector_tier(const float* a, const float* b, Rows rows, float* y, std::int64_t m,
                      std::int64_t n, std::int64_t k) {
  std::int64_t r = 0;
  for (; r + R <= m; r += R) gemm_columns<kBytes, R, NV>(a + r * k, b, rows, y + r * n, n, k, 0);
  if constexpr (R > 4) {
    for (; r + 4 <= m; r += 4) gemm_columns<kBytes, 4, NV>(a + r * k, b, rows, y + r * n, n, k, 0);
  }
  for (; r < m; ++r) gemm_columns<kBytes, 1, NV>(a + r * k, b, rows, y + r * n, n, k, 0);
}

/// One call at `tier`. Each width's block, by measurement
/// (docs/KERNELS.md): two vectors per row, 4 rows at 16 and 32 bytes and
/// 8 rows at 64, where AVX-512's 32 registers hold 16 accumulators.
template <class Rows>
void gemm_at(IsaTier tier, const float* a, const float* b, Rows rows, float* y, std::int64_t m,
             std::int64_t n, std::int64_t k) {
  run_tier(
      tier, [&] { gemm_scalar_tier(a, b, rows, y, m, n, k); },
      [&](auto width) {
        constexpr int kBytes = decltype(width)::value;
        gemm_vector_tier<kBytes, kBytes == 64 ? 8 : 4, 2>(a, b, rows, y, m, n, k);
      });
}

}  // namespace

void GemmKernel::operator()(const float* a, const float* b, float* y, std::int64_t m,
                            std::int64_t n, std::int64_t k) const {
  gemm_at(tier, a, b, DenseRows{}, y, m, n, k);
}

void GemmKernel::operator()(const float* a, const float* b, const std::int64_t* b_rows, float* y,
                            std::int64_t m, std::int64_t n, std::int64_t k) const {
  gemm_at(tier, a, b, TableRows{b_rows}, y, m, n, k);
}

void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

}  // namespace fp8q
