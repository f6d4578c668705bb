// Packed FP8 tensor storage: real uint8 codes plus scale metadata.
//
// The emulation framework computes in FP32 (fake quantization), but a
// deployed FP8 model stores weights as 8-bit codes -- 4x smaller than
// FP32. PackedFp8Tensor materializes that storage format: encode once,
// carry codes + per-channel scales, decode on demand.
//
// Since the packed-GEMM work (docs/KERNELS.md) this file is also the home
// of the two decode primitives the compute kernels are built on:
//
//   * fp8_decode_table  -- a 256-entry float LUT per format, built from
//     the reference fp8_decode. The scalar kernel tier reads it directly;
//     every other tier is tested bit-equal against it.
//   * Fp8DecodeSpec     -- the constants for the branch-free uint32-lane
//     decode (fp8_decode_bits) used by the batched and native tiers.
//     Normal codes are rebuilt as float32 bits with pure integer ops
//     (shift the magnitude into position, ADD the rebias to the exponent
//     field); subnormal codes -- whose magnitude bits are just an integer
//     mantissa m encoding m * 2^(1 - bias - man_bits) -- go through an
//     exact int-to-float convert and one exact power-of-two multiply.
//     Every step is exact and every float32 operand is normal (the
//     smallest FP8 subnormal is >= 2^-16, far above float32's subnormal
//     range), so the decode is bit-identical to the LUT for all 256 codes
//     -- signed zero, subnormals, Inf (IEEE family), NaN (canonical
//     quiet-NaN bits) -- and never touches a denormal float32 operand,
//     which would stall the SIMD tiers with microcode assists on x86.
//
// Round-tripping through the packed form reproduces the fake-quantized
// tensor exactly for every non-NaN input: unpack computes
// decode(code) * (1/scale), the same single multiply by the same
// reciprocal the batched fake-quant kernel applies, and
// fp8_decode(fp8_encode(x)) == fp8_quantize(x) holds for every input
// (tested exhaustively). NaN inputs are the one exception -- fake quant
// passes NaN payloads through, and an 8-bit code cannot carry them -- so
// consumers that need unconditional bit-exactness verify at pack time
// (quantize_weight_packed in quant/quantizer.h does).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "fp8/format.h"
#include "tensor/tensor.h"

namespace fp8q {

/// 256-entry decode LUT: values[c] == fp8_decode(c, spec) bit for bit.
struct Fp8DecodeTable {
  float values[256];
};

/// Cached decode table for one of the three paper formats.
[[nodiscard]] const Fp8DecodeTable& fp8_decode_table(Fp8Kind kind);

/// Precomputed constants for the branch-free arithmetic decode.
struct Fp8DecodeSpec {
  explicit Fp8DecodeSpec(const FormatSpec& spec);

  std::uint32_t man_shift;   ///< 23 - man_bits: magnitude-to-f32 shift
  std::uint32_t exp_add;     ///< (127 - bias) << 23: integer exponent rebias
  float sub_scale;           ///< 2^(1 - bias - man_bits): subnormal step
  std::uint32_t sub_lo;      ///< 1 << man_bits: smallest normal mag-7 code
  std::uint32_t special_lo;  ///< smallest magnitude-7 code that is Inf/NaN
  bool ieee;                 ///< IEEE family: Inf exists, NaN is a range
};

/// Cached Fp8DecodeSpec for one of the three paper formats.
[[nodiscard]] const Fp8DecodeSpec& fp8_decode_spec(Fp8Kind kind);

/// Branch-free arithmetic decode: the float32 BIT PATTERN of
/// fp8_decode(code). Identical to the table for all 256 codes; written in
/// uint32 lanes (shift, bit-or, one exact multiply, compare-selects) so
/// the same operation sequence maps 1:1 onto SIMD in the kernel tiers.
/// Inline so the batched tier's inner loop auto-vectorizes through it.
[[nodiscard]] inline std::uint32_t fp8_decode_bits(std::uint8_t code,
                                                   const Fp8DecodeSpec& spec) {
  const auto c = static_cast<std::uint32_t>(code);
  const std::uint32_t sign = (c & 0x80u) << 24;
  const std::uint32_t mag7 = c & 0x7Fu;
  // Normal codes (exponent field >= 1): shift the magnitude into float32
  // position, then rebias the exponent with an integer ADD -- the result
  // is the exact float32 bit pattern, no floating-point op involved.
  const std::uint32_t norm = (mag7 << spec.man_shift) + spec.exp_add;
  // Subnormal codes (exponent field 0): mag7 IS the integer mantissa m of
  // m * 2^(1 - bias - man_bits). Int-to-float convert is exact (m < 2^7)
  // and the power-of-two scale is exact; the product is a NORMAL float32
  // (FP8's smallest subnormal is >= 2^-16), so no denormal operand ever
  // reaches the multiplier. Computed unconditionally so the SIMD tiers
  // can transcribe this as a lane select.
  const float sub = static_cast<float>(mag7) * spec.sub_scale;
  const std::uint32_t val =
      mag7 < spec.sub_lo ? std::bit_cast<std::uint32_t>(sub) : norm;
  // Specials as compare-selects (if-convertible): the IEEE family has Inf
  // at special_lo and NaN above it; the extended family has the single NaN
  // code 0x7F. The reference decoder returns the canonical unsigned quiet
  // NaN for every NaN code and keeps the sign on Inf.
  const bool special = mag7 >= spec.special_lo;
  const bool is_nan = spec.ieee ? mag7 > spec.special_lo : special;
  const std::uint32_t spec_bits = is_nan ? 0x7FC00000u : (sign | 0x7F800000u);
  return special ? spec_bits : (sign | val);
}

class PackedFp8Tensor {
 public:
  PackedFp8Tensor() = default;

  /// Packs with one scale per leading-axis channel (the paper's weight
  /// scheme): scale_c = float_max / absmax(channel c). Scales are NOT
  /// sanitized (a non-finite channel yields a non-finite scale); callers
  /// that must match the weight-quantization pipeline use
  /// pack_per_channel_scaled with its sanitized scales.
  [[nodiscard]] static PackedFp8Tensor pack_per_channel(const Tensor& t, Fp8Kind kind);

  /// Packs with caller-provided per-channel scales (one per size(0) slice,
  /// already sanitized): code = fp8_encode(x * scale_c). This is how
  /// quantize_weight_packed (quant/quantizer.h) builds codes that decode
  /// bit-identically to the fake-quantized payload.
  [[nodiscard]] static PackedFp8Tensor pack_per_channel_scaled(const Tensor& t,
                                                               Fp8Kind kind,
                                                               std::vector<float> scales);

  /// Packs with a single tensor-wide scale.
  [[nodiscard]] static PackedFp8Tensor pack_per_tensor(const Tensor& t, Fp8Kind kind);

  /// Decodes back to float32: fp8_decode(code) * (1/scale) -- the same
  /// reciprocal multiply the fake-quant kernels apply, so the result is
  /// the fake-quantized tensor bit for bit (non-NaN inputs; file comment).
  [[nodiscard]] Tensor unpack() const;

  [[nodiscard]] Fp8Kind kind() const { return kind_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] const std::vector<std::uint8_t>& codes() const { return codes_; }
  [[nodiscard]] const std::vector<float>& scales() const { return scales_; }
  [[nodiscard]] bool per_channel() const { return scales_.size() > 1; }

  /// Stored bytes (codes + scales), vs numel*4 for FP32.
  [[nodiscard]] std::size_t storage_bytes() const {
    return codes_.size() + scales_.size() * sizeof(float);
  }

 private:
  Fp8Kind kind_ = Fp8Kind::E4M3;
  Shape shape_;
  std::vector<std::uint8_t> codes_;
  std::vector<float> scales_;  ///< one per channel, or a single entry
};

}  // namespace fp8q
