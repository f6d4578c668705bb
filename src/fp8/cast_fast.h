// Branch-light FP8 fake-quantization via float32 bit manipulation.
//
// Semantics: identical to the scalar reference fp8_quantize(x, spec) in
// fp8/cast.h (round-to-nearest-even, saturate-on-overflow) -- verified
// exhaustively against it in the test suite. This is the hot path of the
// emulation framework: every activation element of every quantized
// operator passes through it.
//
// Two forms (docs/PERFORMANCE.md):
//   * fp8_quantize_fast      -- scalar, early-exit branches; matches
//                               cast.cpp's fp8_quantize bit for bit.
//   * fp8_quantize_batch     -- the chunk kernel, one tier per IsaTier
//                               (core/cpu_dispatch.h, docs/KERNELS.md):
//                               kScalar calls fp8_quantize_fast per
//                               element; kBatched and kNative run one
//                               branch-free loop that the compiler
//                               auto-vectorizes at 16 and 32 bytes. Every
//                               tier is bit-identical to the scalar path,
//                               NaN payloads and event tallies included.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "fp8/format.h"

namespace fp8q {

/// Precomputed per-format constants for the fast path. Only
/// fast_cast_spec() builds one, and only for the paper's three formats:
/// the batch kernel's branch-free rounding is verified on those alone and
/// breaks on other layouts (at E6M1 the 1/step it builds for +/-Inf has a
/// zero exponent field, so Inf * 0 gives NaN). Custom EeMm layouts take
/// the scalar reference in fp8/cast.h instead.
struct FastCastSpec {
  int man_bits;
  int min_unbiased_exp;           ///< grid exponent floor (1 - bias)
  std::uint32_t max_bits;         ///< bit pattern of the largest finite value
  std::uint32_t half_min_sub;     ///< bit pattern of min_subnormal / 2
  float min_subnormal;
  std::uint32_t min_biased_exp;   ///< min_unbiased_exp + 127 (float32 bias)
  float max_value;                ///< largest finite representable magnitude
  ObsFormat obs_fmt;              ///< counter bucket for event accounting

 private:
  explicit FastCastSpec(const FormatSpec& spec);
  friend const FastCastSpec& fast_cast_spec(Fp8Kind kind);
};

/// Quantization-event tally produced by fp8_quantize_batch and
/// int8_quantize_batch (fp8/int8.h), folded into obs/counters.h once per
/// span call. `quantized` counts every element. For FP8, `saturated` counts
/// finite overflow and +/-Inf (not NaN) and `flushed` counts nonzero
/// inputs at or below half the smallest subnormal -- all classified on the
/// SCALED value, before dividing the scale back out.
struct CastTally {
  std::uint64_t quantized = 0;
  std::uint64_t saturated = 0;
  std::uint64_t flushed = 0;
};

/// RNE + saturating fake quantization; NaN passes through.
[[nodiscard]] float fp8_quantize_fast(float x, const FastCastSpec& spec);

/// Batched chunk kernel: out[i] = fp8_quantize_fast(in[i] * scale) / scale
/// for i in [0, min(in.size, out.size)), single-threaded, at the tier
/// isa_tier() names on this call. `out` may alias `in` exactly (same base
/// pointer) or not overlap at all. The caller must pre-sanitize `scale`
/// (positive, finite). When `tally` is non-null the chunk's events are
/// classified on each scaled input in the same loop and accumulated into
/// it; outputs are bit-identical whether or not events are tallied.
void fp8_quantize_batch(std::span<const float> in, std::span<float> out,
                        const FastCastSpec& spec, float scale,
                        CastTally* tally = nullptr);

/// The wrapper under both span casts (fp8_quantize_scaled_fast and
/// int8_quantize, fp8/int8.h): one kernel(src, dst, tally) call over
/// [0, min(in.size, out.size)) on the calling thread. With histograms on,
/// it first records the pre-quant magnitudes |in[i] * hist_scale| into
/// `fmt`'s histogram; with counting on, it passes the kernel a tally to
/// fill and folds it into `fmt`'s counters, else a null tally.
void quantize_observed(
    std::span<const float> in, std::span<float> out, ObsFormat fmt, float hist_scale,
    const std::function<void(std::span<const float>, std::span<float>, CastTally*)>& kernel);

/// Vector form: out[i] = fp8_quantize_fast(in[i] * scale) / scale.
/// `out` may alias `in`. A non-finite or non-positive scale is treated as 1.
/// Runs on quantize_observed, so it folds one event tally into the
/// counters when counting is enabled.
void fp8_quantize_scaled_fast(std::span<const float> in, std::span<float> out,
                              const FastCastSpec& spec, float scale);

/// Cached FastCastSpec for one of the three paper formats.
[[nodiscard]] const FastCastSpec& fast_cast_spec(Fp8Kind kind);

}  // namespace fp8q
