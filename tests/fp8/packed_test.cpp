// Packed FP8 storage: round-trip fidelity, footprint and code validity.
#include "fp8/packed.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fp8/cast.h"
#include "metrics/metrics.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

TEST(PackedFp8, PerTensorRoundTripMatchesFakeQuant) {
  Rng rng(3);
  Tensor t = randn(rng, {32, 16});
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto packed = PackedFp8Tensor::pack_per_tensor(t, kind);
    const Tensor back = packed.unpack();
    // The packed round trip is the per-tensor fake quantization to within
    // one float ULP (dequantization multiplies by 1/scale rather than
    // dividing by scale).
    QuantParams p;
    p.dtype = kind == Fp8Kind::E5M2   ? DType::kE5M2
              : kind == Fp8Kind::E4M3 ? DType::kE4M3
                                      : DType::kE3M4;
    p.scale = packed.scales()[0];
    const Tensor fake = apply_quant(t, p);
    EXPECT_LT(max_abs_error(back.flat(), fake.flat()), 1e-5) << to_string(kind);
  }
}

TEST(PackedFp8, PerChannelRoundTripMatchesWeightScheme) {
  Rng rng(5);
  Tensor w = randn(rng, {8, 64});
  for (std::int64_t o = 0; o < 8; ++o) {
    const float gain = static_cast<float>(1 << o);
    for (std::int64_t i = 0; i < 64; ++i) w.at({o, i}) *= gain;
  }
  const auto packed = PackedFp8Tensor::pack_per_channel(w, Fp8Kind::E4M3);
  EXPECT_TRUE(packed.per_channel());
  EXPECT_EQ(packed.scales().size(), 8u);
  const Tensor back = packed.unpack();
  const Tensor fake = apply_quant(w, make_weight_params(w, DType::kE4M3));
  EXPECT_LT(max_abs_error(back.flat(), fake.flat()), 1e-4);
}

TEST(PackedFp8, StorageIsRoughlyQuarterOfFp32) {
  Rng rng(7);
  Tensor t = randn(rng, {64, 64});
  const auto packed = PackedFp8Tensor::pack_per_channel(t, Fp8Kind::E3M4);
  const std::size_t fp32_bytes = static_cast<size_t>(t.numel()) * 4;
  EXPECT_LT(packed.storage_bytes(), fp32_bytes / 3);
  EXPECT_EQ(packed.codes().size(), static_cast<size_t>(t.numel()));
}

TEST(PackedFp8, PreservesShape) {
  Rng rng(9);
  Tensor t = randn(rng, {2, 3, 4});
  const auto packed = PackedFp8Tensor::pack_per_channel(t, Fp8Kind::E5M2);
  EXPECT_EQ(packed.unpack().shape(), t.shape());
  EXPECT_EQ(packed.kind(), Fp8Kind::E5M2);
}

TEST(PackedFp8, ZeroTensorStaysZero) {
  Tensor t({4, 4});
  const auto packed = PackedFp8Tensor::pack_per_tensor(t, Fp8Kind::E4M3);
  const Tensor back = packed.unpack();
  for (std::int64_t i = 0; i < back.numel(); ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(PackedFp8Decode, ExhaustiveEncodeDecodeRoundTrip) {
  // Every decodable finite value re-encodes to a code with the same
  // decode: the packed form is a fixed point of encode/decode per format.
  for (Fp8Kind kind : kAllFp8Kinds) {
    const FormatSpec& spec = format_spec(kind);
    for (int c = 0; c < 256; ++c) {
      const auto code = static_cast<std::uint8_t>(c);
      if (fp8_is_nan(code, spec) || fp8_is_inf(code, spec)) continue;
      const float value = fp8_decode(code, spec);
      const std::uint8_t re = fp8_encode(value, spec);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(fp8_decode(re, spec)),
                std::bit_cast<std::uint32_t>(value))
          << to_string(kind) << " code " << c;
    }
  }
}

TEST(PackedFp8, CodesAreValidFiniteEncodings) {
  Rng rng(11);
  Tensor t = randn(rng, {256});
  const auto packed = PackedFp8Tensor::pack_per_tensor(t, Fp8Kind::E4M3);
  const auto& spec = format_spec(Fp8Kind::E4M3);
  for (std::uint8_t code : packed.codes()) {
    EXPECT_FALSE(fp8_is_nan(code, spec));
    EXPECT_FALSE(fp8_is_inf(code, spec));
  }
}

}  // namespace
}  // namespace fp8q
