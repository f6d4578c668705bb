// The one f32 GEMM microkernel under LinearOp, MatMulOp and Conv2dOp
// (docs/KERNELS.md).
//
// Contract, at every tier and every thread count:
//
//   y[r][j] += sum_kk a[r][kk] * b[kk][j]      r < m, j < n, kk < k
//
// a is [m, k] and y is [m, n], both dense row-major. Row kk of b is the n
// floats from b + kk * n (dense: b is a row-major [k, n]) or from
// b + b_rows[kk] (table: rows at any offsets, overlapping allowed). y's
// incoming value (a bias, or 0) is the first term of every sum, kk runs
// strictly ascending per output element, and every product and every sum
// is rounded on its own (fp contraction is off in gemm.cpp). So
// every tier produces the bits of the naive triple loop, and rows never
// interact: any split of the m rows gives the same result.
//
// Callers lower onto it (docs/KERNELS.md): Linear computes x * W^T with
// the weight transposed per call and MatMul passes B in place, both
// dense; Conv2d multiplies each group's weight rows by a zero-bordered
// copy of the group's input planes, its taps a table of row offsets.
//
// Dispatch: gemm_kernel(tier) returns that tier's kernel; callers index it
// with isa_tier() (core/cpu_dispatch.h), as they do the tanh kernel's
// (nn/tanh.h). Two bodies live in gemm.cpp, each a template on how it
// finds row kk of b: the scalar reference, and one vector kernel whose
// 16-byte instantiation is kBatched and whose 32-byte instantiation,
// compiled for AVX2, is kNative on x86-64. Without AVX2 (CPU or
// architecture) kNative falls back to the kBatched kernel.
#pragma once

#include <cstdint>

#include "core/cpu_dispatch.h"

namespace fp8q {

/// Row kk of b starts at b + kk * n: a dense row-major [k, n] b.
struct DenseRows {};

/// Row kk of b starts at b + offsets[kk]; rows may overlap.
struct TableRows {
  const std::int64_t* offsets;
};

/// One tier's kernel: y += a * b over m rows, single-threaded (contract in
/// the file comment), with b's rows dense or from a table.
struct GemmKernel {
  template <class Rows>
  using Body = void (*)(const float* a, const float* b, Rows rows, float* y, std::int64_t m,
                        std::int64_t n, std::int64_t k);
  Body<DenseRows> dense;
  Body<TableRows> table;

  /// b is a dense row-major [k, n].
  void operator()(const float* a, const float* b, float* y, std::int64_t m, std::int64_t n,
                  std::int64_t k) const {
    dense(a, b, DenseRows{}, y, m, n, k);
  }
  /// Row kk of b is the n floats from b + b_rows[kk].
  void operator()(const float* a, const float* b, const std::int64_t* b_rows, float* y,
                  std::int64_t m, std::int64_t n, std::int64_t k) const {
    table(a, b, TableRows{b_rows}, y, m, n, k);
  }
};

/// The kernel of one tier. kNative falls back to kBatched when no native
/// kernel is available.
[[nodiscard]] GemmKernel gemm_kernel(IsaTier tier);

/// dst[c][r] = src[r][c] for a dense row-major [rows, cols] src: the
/// Linear weight and MatMul's transpose_b operand become a k-major b.
void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst);

}  // namespace fp8q
