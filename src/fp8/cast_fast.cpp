#include "fp8/cast_fast.h"

#include <bit>
#include <cmath>
#include <cstddef>

#include "fp8/cast_tier.h"
#include "obs/counters.h"
#include "obs/histogram.h"

namespace fp8q {

FastCastSpec::FastCastSpec(const FormatSpec& spec)
    : man_bits(spec.man_bits),
      min_unbiased_exp(spec.min_unbiased_exp()),
      max_bits(std::bit_cast<std::uint32_t>(spec.max_value())),
      half_min_sub(std::bit_cast<std::uint32_t>(spec.min_subnormal() * 0.5f)),
      min_subnormal(spec.min_subnormal()),
      min_biased_exp(static_cast<std::uint32_t>(spec.min_unbiased_exp() + 127)),
      max_value(spec.max_value()),
      obs_fmt(obs_format(spec)) {}

float fp8_quantize_fast(float x, const FastCastSpec& spec) {
  std::uint32_t u = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t sign = u & 0x80000000u;
  std::uint32_t au = u & 0x7FFFFFFFu;

  if (au >= 0x7F800000u) {
    // NaN passes through; +/-Inf saturates to +/-max.
    if (au > 0x7F800000u) return x;
    return std::bit_cast<float>(sign | spec.max_bits);
  }
  if (au <= spec.half_min_sub) {
    // At or below half the smallest subnormal: rounds to (signed) zero.
    // The exact tie (== half) goes to zero by round-to-even.
    return std::bit_cast<float>(sign);
  }

  // Effective mantissa width shrinks by one bit per binade below the
  // normal range (shared subnormal grid at min_unbiased_exp).
  const int e32 = static_cast<int>(au >> 23) - 127;
  int shift = 23 - spec.man_bits;
  if (e32 < spec.min_unbiased_exp) shift += spec.min_unbiased_exp - e32;

  if (shift >= 24) {
    // Value in (half_min_sub, min_subnormal): rounds up to the smallest
    // subnormal (the exact tie was handled above).
    const float mag = spec.min_subnormal;
    return sign ? -mag : mag;
  }

  // Round-to-nearest-even at `shift` dropped bits: add the rounding bias
  // (carry propagates naturally into the exponent field). When the whole
  // mantissa is dropped (shift == 23, the lowest subnormal binade with one
  // effective bit), the kept LSB lies in the exponent field and no longer
  // encodes grid parity; there the upper neighbour (2 ulp, even) always
  // wins ties, which is exactly round-half-up.
  const std::uint32_t bias = shift == 23
                                 ? (1u << 22)
                                 : ((1u << (shift - 1)) - 1u) + ((au >> shift) & 1u);
  au += bias;
  au &= ~((1u << shift) - 1u);

  if (au > spec.max_bits) au = spec.max_bits;  // saturate
  return std::bit_cast<float>(sign | au);
}

namespace {

// ---------------------------------------------------------------------------
// kScalar tier: the reference every other tier is tested bit-equal
// against. One fp8_quantize_fast call per element, and the events
// classified per element on the same scaled value.
// ---------------------------------------------------------------------------

void fp8_scalar_tier(const float* in, float* out, std::size_t n, const FastCastSpec& spec,
                     float scale, CastTally* tally) {
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) {
    const float scaled = in[i] * scale;
    out[i] = fp8_quantize_fast(scaled, spec) * inv;
    if (tally == nullptr) continue;
    const std::uint32_t au = std::bit_cast<std::uint32_t>(scaled) & 0x7FFFFFFFu;
    // Finite overflow and +/-Inf clamp to +/-max; NaN (above the Inf
    // pattern) passes through and is not an event.
    if (au > spec.max_bits && au <= 0x7F800000u) ++tally->saturated;
    // Nonzero but at or below half the smallest subnormal: rounds to 0.
    if (au != 0u && au <= spec.half_min_sub) ++tally->flushed;
  }
  if (tally != nullptr) tally->quantized += n;
}

// ---------------------------------------------------------------------------
// The vector tiers: one branch-free loop that GCC auto-vectorizes (this
// file builds at -O3), at baseline width (kBatched: SSE2 on x86-64, NEON
// on AArch64), under AVX2 (kNative) and under AVX-512 (kWide;
// fp8/cast_tier.h). It always classifies the events in the same loop,
// into 32-bit lane counters one kTallyChunk at a time, and folds them
// into `tally` only when there is one.
// ---------------------------------------------------------------------------

void fp8_vector_tier(const float* in, float* out, std::size_t n, const FastCastSpec& spec,
                     float scale, CastTally* tally) {
  const float inv = 1.0f / scale;
  const auto man = static_cast<std::uint32_t>(spec.man_bits);
  const std::uint32_t min_eb = spec.min_biased_exp;
  const std::uint32_t max_bits = spec.max_bits;
  const std::uint32_t half_min_sub = spec.half_min_sub;
  const float max_value = spec.max_value;

  // Branch-free rounding in the float domain. For a magnitude `ax` with
  // (clamped) biased exponent eb, the grid spacing is step = 2^(eb-127-man)
  // -- man mantissa bits per binade, widening to the shared subnormal grid
  // below min_biased_exp. Both step and 1/step are built by shifting an
  // exponent into a float, so `v = ax / step` and the final `k * step` are
  // EXACT power-of-two scalings; the single rounding happens in the magic
  // add, which snaps v < 2^22 to the nearest integer with ties-to-even.
  // That reproduces the scalar path bit for bit, including its two rounding
  // corners: in the lowest subnormal binade v lies in [1, 2), where the
  // RNE tie at 1.5 picks 2 (the even integer) -- the scalar shift == 23
  // round-half-up -- and in (half_min_sub, min_subnormal), v lies in
  // (0.5, 1), rounding up to one grid step, the scalar shift >= 24 case.
  // Inf survives the arithmetic (v = k = q = Inf) and the saturate select
  // clamps it to max_value; NaN fails every compare and is passed through
  // by the final select with its payload intact. All operations are
  // constant shifts, adds, multiplies, compare-selects and integer
  // compare-adds, so the loop auto-vectorizes.
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
  for (std::size_t begin = 0; begin < n; begin += kTallyChunk) {
    const std::size_t end = n - begin < kTallyChunk ? n : begin + kTallyChunk;
    std::uint32_t saturated = 0;
    std::uint32_t flushed = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const float scaled = in[i] * scale;
      const std::uint32_t u = std::bit_cast<std::uint32_t>(scaled);
      const std::uint32_t sign = u & 0x80000000u;
      const std::uint32_t au = u & 0x7FFFFFFFu;
      std::uint32_t eb = au >> 23;
      eb = eb < min_eb ? min_eb : eb;
      const float step = std::bit_cast<float>((eb - man) << 23);
      const float inv_step = std::bit_cast<float>((254u + man - eb) << 23);
      const float ax = std::bit_cast<float>(au);
      const float v = ax * inv_step;                        // exact
      const float k = (v + kRoundMagic) - kRoundMagic;      // RNE to integer
      float q = k * step;                                   // exact
      q = q > max_value ? max_value : q;                    // saturate
      std::uint32_t rbits = sign | std::bit_cast<std::uint32_t>(q);
      rbits = au <= half_min_sub ? sign : rbits;            // flush to zero
      rbits = au > 0x7F800000u ? u : rbits;                 // NaN passthrough
      out[i] = std::bit_cast<float>(rbits) * inv;
      // The scalar tier's two rules on the same bits: finite overflow or
      // +/-Inf, and nonzero at or below half the smallest subnormal.
      saturated += static_cast<std::uint32_t>(au > max_bits) &
                   static_cast<std::uint32_t>(au <= 0x7F800000u);
      flushed += static_cast<std::uint32_t>(au != 0u) &
                 static_cast<std::uint32_t>(au <= half_min_sub);
    }
    if (tally != nullptr) {
      tally->saturated += saturated;
      tally->flushed += flushed;
    }
  }
  if (tally != nullptr) tally->quantized += n;
}

}  // namespace

void fp8_quantize_batch(std::span<const float> in, std::span<float> out,
                        const FastCastSpec& spec, float scale, CastTally* tally) {
  const std::size_t n = in.size() < out.size() ? in.size() : out.size();
  run_cast_tier([&] { fp8_scalar_tier(in.data(), out.data(), n, spec, scale, tally); },
                [&] { fp8_vector_tier(in.data(), out.data(), n, spec, scale, tally); });
}

void quantize_observed(
    std::span<const float> in, std::span<float> out, ObsFormat fmt, float hist_scale,
    const std::function<void(std::span<const float>, std::span<float>, CastTally*)>& kernel) {
  const std::size_t n = in.size() < out.size() ? in.size() : out.size();
  const auto src = in.first(n);
  const auto dst = out.first(n);
  if (histograms_enabled()) {
    // Pre-quant magnitude distribution, read BEFORE the kernel (out may
    // alias in).
    LocalHistogram local;
    for (const float v : src) local.record(std::fabs(static_cast<double>(v) * hist_scale));
    hist_merge(fmt, local);
  }
  // Event counting is decided once per call (not per element), and the
  // tally is folded into the counters once.
  if (!counters_enabled()) {
    kernel(src, dst, nullptr);
    return;
  }
  CastTally tally;
  kernel(src, dst, &tally);
  counter_add(fmt, ObsEvent::kQuantized, tally.quantized);
  counter_add(fmt, ObsEvent::kSaturated, tally.saturated);
  counter_add(fmt, ObsEvent::kFlushedToZero, tally.flushed);
}

void fp8_quantize_scaled_fast(std::span<const float> in, std::span<float> out,
                              const FastCastSpec& spec, float scale) {
  if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
  // With counting off the kernel gets no tally; outputs are bit-identical
  // either way.
  quantize_observed(in, out, spec.obs_fmt, scale,
                    [&spec, scale](std::span<const float> src, std::span<float> dst,
                                   CastTally* tally) {
                      fp8_quantize_batch(src, dst, spec, scale, tally);
                    });
}

const FastCastSpec& fast_cast_spec(Fp8Kind kind) {
  static const FastCastSpec specs[3] = {FastCastSpec(format_spec(Fp8Kind::E5M2)),
                                        FastCastSpec(format_spec(Fp8Kind::E4M3)),
                                        FastCastSpec(format_spec(Fp8Kind::E3M4))};
  return specs[static_cast<int>(kind)];
}

}  // namespace fp8q
