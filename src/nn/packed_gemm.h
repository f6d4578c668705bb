// Packed FP8 GEMM/conv kernels: compute directly on 8-bit weight codes.
//
// The quantization pipeline used to dequantize every weight into a full
// FP32 tensor before calling the blocked matmul, so the 4x memory win of
// the FP8 formats never reached the hot path. These kernels keep the
// weight as uint8 codes and decode in-register inside the microkernel --
// one code byte streams in where four float bytes used to.
//
// Memory layout (docs/KERNELS.md has diagrams):
//
//   PackedWeightMatrix  GEMM operand for y = x * W^T (+ bias). Codes are
//     repacked k-major / channel-last: codes[kk * n + j] is output channel
//     j at reduction index kk, so the microkernel loads a contiguous run
//     of 8/16 output channels per reduction step and broadcasts one
//     activation. inv_scales[j] = 1 / scale_j is precomputed once.
//   PackedConvWeight    Conv2d operand; codes stay in the op's native
//     [oc][ic/g * kh * kw] order with inv_scales per output channel. The
//     conv forward decodes one output channel's taps per (image, plane)
//     into a scratch row, then runs the legacy tap loops over it.
//
// Microkernel contract (every tier, every thread count):
//
//   y[r][j] = bias[j] (+) sum_kk x[r][kk] * (decode(code[kk][j]) * inv[j])
//
// with the kk-summation strictly ascending per output element, the weight
// produced by exactly one decode multiply and one scale multiply, and the
// sum accumulated with separate mul+add (fp contraction is disabled on
// every kernel TU). decode() is bit-identical across tiers -- the LUT and
// the arithmetic decode agree on all 256 codes (fp8/packed.h) -- so every
// tier produces bit-identical outputs, and because decode(code) * inv is
// bitwise the fake-quantized weight, the packed path also matches the
// dequantize-to-FP32 path bit for bit (the bit-exactness policy in
// docs/KERNELS.md).
//
// Dispatch: packed_kernels(tier) returns a per-tier function table;
// callers index it with isa_tier() (core/cpu_dispatch.h). The kNative
// table is compiled in arch-specific TUs (packed_gemm_avx2.cpp,
// packed_gemm_neon.cpp) and falls back to kBatched when the CPU or the
// build lacks a native path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cpu_dispatch.h"
#include "fp8/packed.h"
#include "tensor/tensor.h"

namespace fp8q {

/// GEMM weight operand: k-major codes + per-output-channel reciprocal
/// scales (layout in the file comment).
struct PackedWeightMatrix {
  std::int64_t k = 0;                ///< reduction depth (in_features)
  std::int64_t n = 0;                ///< output channels (out_features)
  Fp8Kind kind = Fp8Kind::E4M3;
  std::vector<std::uint8_t> codes;   ///< [k][n]: codes[kk * n + j]
  std::vector<float> inv_scales;     ///< [n]: 1 / scale_j

  /// Bytes held (codes + scales), vs k * n * 4 for the FP32 weight.
  [[nodiscard]] std::size_t storage_bytes() const {
    return codes.size() + inv_scales.size() * sizeof(float);
  }
};

/// Builds the GEMM operand from a per-channel packed [n, k] weight
/// (LinearOp's [out, in] layout; scales on axis 0). Per-tensor packings
/// broadcast their single scale.
[[nodiscard]] PackedWeightMatrix pack_gemm_weight(const PackedFp8Tensor& packed);

/// Conv2d weight operand: codes in the op's native layout + per-oc
/// reciprocal scales.
struct PackedConvWeight {
  std::int64_t oc = 0;               ///< output channels
  std::int64_t block = 0;            ///< taps per channel: (ic/g) * kh * kw
  Fp8Kind kind = Fp8Kind::E4M3;
  std::vector<std::uint8_t> codes;   ///< [oc][block], same order as the weight
  std::vector<float> inv_scales;     ///< [oc]: 1 / scale_o

  [[nodiscard]] std::size_t storage_bytes() const {
    return codes.size() + inv_scales.size() * sizeof(float);
  }
};

/// Builds the conv operand from a per-channel packed [oc, ic/g, kh, kw]
/// weight (scales on axis 0).
[[nodiscard]] PackedConvWeight pack_conv_weight(const PackedFp8Tensor& packed);

/// Per-tier kernel entry points (one table per IsaTier; see file comment
/// for the bit-exactness contract they all satisfy).
struct PackedKernelTable {
  /// Decodes `count` codes sharing one reciprocal scale:
  /// out[i] = decode(codes[i]) * inv. Used for conv weight rows, where
  /// the scale is constant per channel.
  void (*decode_mul)(const std::uint8_t* codes, float inv, float* out, std::int64_t count,
                     Fp8Kind kind);

  /// The GEMM microkernel: `rows` rows of x [rows, k] against w, writing
  /// y [rows, n]. bias is [n] or nullptr. Single-threaded over its slice;
  /// packed_gemm_forward parallelizes across row chunks.
  void (*gemm)(const float* x, const PackedWeightMatrix& w, const float* bias, float* y,
               std::int64_t rows);
};

/// Function table for one tier. kNative falls back to the batched table
/// when no native path exists (missing CPU feature or non-SIMD build).
[[nodiscard]] const PackedKernelTable& packed_kernels(IsaTier tier);

/// Parallel GEMM driver: row-partitioned with the same grain policy as
/// LinearOp, dispatching to packed_kernels(isa_tier()).
void packed_gemm_forward(const float* x, const PackedWeightMatrix& w, const float* bias,
                         float* y, std::int64_t rows);

/// A [..., m, k] times the packed weight's decode as B^T ([k, n]) ->
/// [..., m, n]. The packed counterpart of unpacking to FP32 and calling
/// MatMulOp with transpose_b; bit-identical to that path.
[[nodiscard]] Tensor packed_matmul(const Tensor& a, const PackedWeightMatrix& w);

namespace detail {
/// Defined by the arch TU compiled into this build (AVX2 or NEON).
[[nodiscard]] const PackedKernelTable& packed_kernels_native_impl();
}  // namespace detail

}  // namespace fp8q
