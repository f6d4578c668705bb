// Packed FP8 tensor storage: real uint8 codes plus scale metadata.
//
// The emulation framework computes in FP32 (fake quantization), but a
// deployed FP8 model stores weights as 8-bit codes -- 4x smaller than
// FP32. PackedFp8Tensor materializes that storage format: encode once,
// carry codes + per-channel scales, decode on demand. The compute kernels
// never read it: every fake-quantized weight is already an exact FP32
// value, so they run on that (docs/KERNELS.md).
//
// Round-tripping through the packed form reproduces the fake-quantized
// tensor exactly for every non-NaN input: unpack computes
// decode(code) * (1/scale), the same single multiply by the same
// reciprocal the batched fake-quant kernel applies, and
// fp8_decode(fp8_encode(x)) == fp8_quantize(x) holds for every input
// (tested exhaustively). NaN inputs are the one exception -- fake quant
// passes NaN payloads through, and an 8-bit code cannot carry them.
#pragma once

#include <cstdint>
#include <vector>

#include "fp8/format.h"
#include "tensor/tensor.h"

namespace fp8q {

class PackedFp8Tensor {
 public:
  PackedFp8Tensor() = default;

  /// Packs with one scale per leading-axis channel (the paper's weight
  /// scheme): scale_c = float_max / absmax(channel c), 1 for an all-zero
  /// channel. Scales are NOT sanitized (a non-finite channel yields a
  /// non-finite scale).
  [[nodiscard]] static PackedFp8Tensor pack_per_channel(const Tensor& t, Fp8Kind kind);

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
