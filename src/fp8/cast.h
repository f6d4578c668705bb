// FP8 casting reference: bit-exact encode/decode between float32 and 8-bit
// codes, plus the scalar fused quantize-dequantize ("fake quant"). This
// mirrors the role of the FP8 Emulation Toolkit referenced by the paper:
// all arithmetic stays in FP32, values are snapped onto the FP8 grid at
// operator boundaries, rounding to nearest-even and saturating (paper
// section 2). Tensors take the fast path in fp8/cast_fast.h, which is
// tested bit for bit against fp8_quantize here.
#pragma once

#include <cstdint>
#include <vector>

#include "fp8/format.h"

namespace fp8q {

/// Encodes a float32 value into the 8-bit code of `spec`: round to
/// nearest-even, saturate beyond the max finite magnitude (+/-Inf inputs
/// included), NaN to NaN.
[[nodiscard]] std::uint8_t fp8_encode(float x, const FormatSpec& spec);

/// Decodes an 8-bit code of `spec` into the exact float32 value it denotes.
/// NaN codes produce quiet NaN; Inf codes (IEEE family) produce +/-Inf.
[[nodiscard]] float fp8_decode(std::uint8_t code, const FormatSpec& spec);

/// Fused quantize-dequantize: the float32 value nearest-representable in
/// `spec`. Equal to fp8_decode(fp8_encode(x)) for every input (tested
/// exhaustively) but avoids the intermediate code.
[[nodiscard]] float fp8_quantize(float x, const FormatSpec& spec);

/// Convenience overloads on the paper's three formats.
[[nodiscard]] inline float fp8_quantize(float x, Fp8Kind kind) {
  return fp8_quantize(x, format_spec(kind));
}
[[nodiscard]] inline std::uint8_t fp8_encode(float x, Fp8Kind kind) {
  return fp8_encode(x, format_spec(kind));
}
[[nodiscard]] inline float fp8_decode(std::uint8_t code, Fp8Kind kind) {
  return fp8_decode(code, format_spec(kind));
}

/// Every finite value representable by `spec`, ascending, deduplicated
/// (+0 and -0 collapse to one entry). Useful for grid/density analyses
/// (paper Figure 1 center panel).
[[nodiscard]] std::vector<float> representable_values(const FormatSpec& spec);

/// Canonical NaN code for `spec` (sign bit clear).
[[nodiscard]] std::uint8_t fp8_nan_code(const FormatSpec& spec);

/// True if `code` denotes NaN under `spec`.
[[nodiscard]] bool fp8_is_nan(std::uint8_t code, const FormatSpec& spec);

/// True if `code` denotes +/-Infinity under `spec` (always false for the
/// extended-encoding formats).
[[nodiscard]] bool fp8_is_inf(std::uint8_t code, const FormatSpec& spec);

}  // namespace fp8q
