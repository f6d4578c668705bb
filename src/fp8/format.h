// FP8 binary format descriptions (paper Table 1).
//
// An FP8 format is described by an exponent width `e`, a mantissa width `m`
// (1 + e + m == 8), an exponent bias `b`, and an encoding family. The byte
// layout is sign | exponent | mantissa, most-significant bit first:
//
//   E5M2:  s eeeee mm    bias 15   (IEEE family)
//   E4M3:  s eeee mmm    bias  7   (extended family)
//   E3M4:  s eee mmmm    bias  3   (extended family)
//
// Value rules (identical to IEEE-754 scaled down to 8 bits):
//   * exponent field E > 0:  value = (-1)^s * (1 + mant/2^m) * 2^(E - b)
//   * exponent field E == 0: value = (-1)^s * (mant/2^m) * 2^(1 - b)
//     (subnormals: gradual underflow on the grid of the smallest normal
//     binade; mant == 0 gives signed zero)
//
// The two families differ only in what the TOP exponent field means:
//   * IEEE-like (E5M2): the all-ones exponent field is reserved for
//     +/-Infinity (mantissa == 0) and NaNs (mantissa != 0), exactly like
//     binary16/32/64 scaled down. 6 NaN codes (0x7D-0x7F, 0xFD-0xFF),
//     Inf at 0x7C/0xFC, max finite 0x7B = 57344.
//   * Extended (E4M3, E3M4): +/-Infinity is reclaimed for useful
//     encodings; only the single bit pattern with exponent AND mantissa
//     all-ones is NaN (one per sign: 0x7F/0xFF), every other code is a
//     finite value. This buys roughly one extra binade of range:
//     max finite 0x7E = 448 (E4M3) / 30 (E3M4).
//
// Saturation (paper section 2): every cast clamps anything beyond the max
// finite magnitude -- overflow, and +/-Inf inputs -- to +/-max instead of
// producing Inf/NaN, the right behavior after PTQ range calibration. NaN
// inputs encode to NaN.
// All formats support signed zero and subnormals; canonical constants for
// the three paper formats are tabulated in core/fp8q.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/counters.h"

namespace fp8q {

/// The three formats studied in the paper.
enum class Fp8Kind : std::uint8_t { E5M2, E4M3, E3M4 };

/// Encoding family for the maximum exponent field.
enum class EncodingFamily : std::uint8_t {
  kIeee,      ///< all-ones exponent reserved for Inf/NaN (E5M2)
  kExtended,  ///< all-ones exponent holds normal values; single NaN code
};

/// Full description of an 8-bit floating point format. Immutable value type.
struct FormatSpec {
  int exp_bits = 0;       ///< e: exponent field width in bits
  int man_bits = 0;       ///< m: mantissa (fraction) field width in bits
  int bias = 0;           ///< exponent bias b
  EncodingFamily family = EncodingFamily::kIeee;
  std::string_view name = "";

  /// Unbiased exponent of the smallest normal number (also used for
  /// subnormals): 1 - bias.
  [[nodiscard]] constexpr int min_unbiased_exp() const { return 1 - bias; }

  /// Unbiased exponent of the largest normal number.
  [[nodiscard]] constexpr int max_unbiased_exp() const {
    const int max_field =
        (family == EncodingFamily::kIeee) ? (1 << exp_bits) - 2 : (1 << exp_bits) - 1;
    return max_field - bias;
  }

  /// Largest finite representable magnitude (448.0 for E4M3, ...).
  [[nodiscard]] float max_value() const;

  /// Smallest positive normal magnitude: 2^(1-bias).
  [[nodiscard]] float min_normal() const;

  /// Smallest positive subnormal magnitude: 2^(1-bias-m).
  [[nodiscard]] float min_subnormal() const;

  /// True if the format can encode +/-Infinity (IEEE family only).
  [[nodiscard]] constexpr bool has_infinity() const {
    return family == EncodingFamily::kIeee;
  }

  /// Number of distinct finite non-NaN codes (including both zeros).
  [[nodiscard]] int finite_code_count() const;

  /// Quantization grid density around decimal magnitude N (Appendix A.1,
  /// Eq. 2): 2^(m - floor(log2 N)) representable values per unit interval.
  [[nodiscard]] double grid_density_at(double magnitude) const;
};

/// Returns the spec for one of the three paper formats.
[[nodiscard]] const FormatSpec& format_spec(Fp8Kind kind);

/// Builds a custom E(e)M(m) spec (e.g. E2M5 from Kuzmin et al.). The bias
/// defaults to 2^(e-1) - 1; extended encoding unless `ieee` is set.
[[nodiscard]] FormatSpec make_format(int exp_bits, int man_bits, int bias_override = -1,
                                     bool ieee = false);

[[nodiscard]] std::string_view to_string(Fp8Kind kind);

/// Counter bucket for quantization-event accounting (obs/counters.h): the
/// three paper formats map to their own buckets, custom EeMm formats from
/// make_format to ObsFormat::kOther.
[[nodiscard]] ObsFormat obs_format(const FormatSpec& spec);

/// Parses "E5M2"/"e4m3"/... ; throws std::invalid_argument on other input.
[[nodiscard]] Fp8Kind fp8_kind_from_string(std::string_view s);

/// All three paper formats, in dynamic-range order.
inline constexpr Fp8Kind kAllFp8Kinds[] = {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4};

}  // namespace fp8q
