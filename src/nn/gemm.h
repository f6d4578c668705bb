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
// (nn/tanh.h), and each call runs through run_tier(). Two bodies live in
// gemm.cpp, each a template on how it finds row kk of b: the scalar
// reference, and one vector body templated on its register block (rows by
// columns). kBatched runs it at 16 bytes with a 4x8 block, kNative at 32
// bytes under AVX2 with 4x16, and kWide at 64 bytes under AVX-512 with
// 8x32. Past the last full block, columns go by one vector, then each
// narrower vector down to 4 lanes, then one at a time; rows by 4, then 1.
// A tier the CPU lacks clamps down to one it runs.
#pragma once

#include <cstdint>

#include "core/cpu_dispatch.h"

namespace fp8q {

/// One tier's kernel: y += a * b over m rows, single-threaded (contract in
/// the file comment), with b's rows dense or from a table.
struct GemmKernel {
  IsaTier tier;

  /// b is a dense row-major [k, n].
  void operator()(const float* a, const float* b, float* y, std::int64_t m, std::int64_t n,
                  std::int64_t k) const;
  /// Row kk of b is the n floats from b + b_rows[kk]; rows may overlap.
  void operator()(const float* a, const float* b, const std::int64_t* b_rows, float* y,
                  std::int64_t m, std::int64_t n, std::int64_t k) const;
};

/// The kernel of one tier. A tier the CPU lacks runs the best one below it.
[[nodiscard]] inline GemmKernel gemm_kernel(IsaTier tier) { return {tier}; }

/// dst[c][r] = src[r][c] for a dense row-major [rows, cols] src: the
/// Linear weight and MatMul's transpose_b operand become a k-major b.
void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst);

}  // namespace fp8q
