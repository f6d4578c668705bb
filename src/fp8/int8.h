// INT8 affine quantization baseline (paper Table 2 comparison row).
//
// Standard symmetric / asymmetric INT8 with round-to-nearest-even, the
// scheme the paper's INT8 baseline uses through Neural Compressor:
// per-channel symmetric weights, per-tensor activations (static for CV,
// dynamic for NLP).
//
// Two forms, like the FP8 cast (fp8/cast_fast.h, docs/PERFORMANCE.md):
//   * int8_encode / int8_decode / int8_quantize(float) -- the scalar
//     reference, simple enough to audit;
//   * int8_quantize_batch -- the chunk kernel, one tier per IsaTier
//     (core/cpu_dispatch.h): kScalar runs the reference per element,
//     the vector tiers one branch-free loop that the compiler
//     auto-vectorizes at 16, 32 and 64 bytes, bit-identical to the reference
//     and counting quantization events in the same pass. The span
//     int8_quantize runs it once over the whole span.
#pragma once

#include <cstdint>
#include <span>

#include "fp8/cast_fast.h"

namespace fp8q {

/// Affine quantization parameters: real = (q - zero_point) * scale.
struct Int8Params {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
  std::int32_t qmin = -128;
  std::int32_t qmax = 127;
};

/// Symmetric parameters from a calibrated absolute maximum. Uses the
/// restricted range [-127, 127] so the grid is symmetric around zero.
/// Scale 1 when absmax is not positive and finite, or so small that
/// absmax / 127 underflows to 0.
[[nodiscard]] Int8Params int8_symmetric_params(float absmax);

/// Asymmetric parameters from calibrated [min, max]; full [-128, 127] range
/// with a zero-point chosen so that real 0.0 is exactly representable.
/// Scale 1 when the range is empty, not finite, or so small that dividing
/// it into 255 steps underflows to 0.
[[nodiscard]] Int8Params int8_asymmetric_params(float min_value, float max_value);

/// Quantizes one value to its integer code (round-to-nearest-even, clamped).
/// NaN encodes to code 0.
[[nodiscard]] std::int8_t int8_encode(float x, const Int8Params& p);

/// Dequantizes an integer code back to float32.
[[nodiscard]] float int8_decode(std::int8_t q, const Int8Params& p);

/// Fused quantize-dequantize of one value.
[[nodiscard]] float int8_quantize(float x, const Int8Params& p);

/// Batched chunk kernel: out[i] = int8_quantize(in[i], p) for i in
/// [0, min(in.size, out.size)), single-threaded, at the tier isa_tier()
/// names on this call. `out` may alias `in` exactly (same base pointer) or
/// not overlap at all. The caller must pass parameters the span form below
/// accepts. When `tally` is non-null the chunk's events are added to it:
/// `saturated` counts non-NaN elements whose rounded code falls outside
/// [qmin, qmax], `flushed` counts the other nonzero, non-NaN elements that
/// decode to +/-0.
void int8_quantize_batch(std::span<const float> in, std::span<float> out, const Int8Params& p,
                         CastTally* tally = nullptr);

/// Span form: int8_quantize_batch on quantize_observed (fp8/cast_fast.h),
/// the FP8 span cast's wrapper, which folds one event tally into the
/// counters when counting is enabled. `out` may alias
/// `in`. Throws std::invalid_argument unless the scale is positive and
/// finite and -128 <= qmin <= {0, zero_point} <= qmax <= 127, which both
/// builders above guarantee.
void int8_quantize(std::span<const float> in, std::span<float> out, const Int8Params& p);

}  // namespace fp8q
