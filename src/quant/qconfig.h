// Quantization configuration vocabulary: data types, granularity,
// calibration methods and the whole-model scheme description.
//
// A SchemeConfig is one column of paper Table 2 -- the complete recipe
// for quantizing a model. The paper's two recipes map onto it directly:
//
//   standard scheme (section 3.1, standard_fp8_scheme): one FP8 format
//   for weights and activations, per-channel weight scales, per-tensor
//   static activation scales from absmax calibration, compute ops only
//   (Linear/MatMul/Conv), CNN first-conv/last-FC kept in FP32.
//
//   extended scheme (section 3.2): everything the standard scheme leaves
//   on the table, each behind its own flag so the ablations can toggle
//   them independently -- quantize_extended_ops (LayerNorm/BatchNorm/
//   Add/Mul coverage), dynamic_activations (Table 6), mixed formats
//   (mixed_fp8_scheme: E4M3 activations + E3M4 weights), smoothquant
//   (NLP outlier smoothing), per_token_activations (ablation only).
//
// The auto-tuner (tune/tuner.h) searches over exactly this space: its
// ladder arms are SchemeConfigs, its fallbacks mutate the per-op
// coverage a SchemeConfig implies.
#pragma once

#include <string>
#include <string_view>

#include "fp8/format.h"

namespace fp8q {

/// Numeric type a tensor is snapped to at operator boundaries.
enum class DType : std::uint8_t { kFP32, kE5M2, kE4M3, kE3M4, kINT8 };

[[nodiscard]] std::string_view to_string(DType dtype);

/// True if `dtype` is one of the three FP8 formats.
[[nodiscard]] bool is_fp8(DType dtype);

/// Maps an FP8 DType to its format spec; throws for non-FP8 types.
[[nodiscard]] const FormatSpec& fp8_spec(DType dtype);

[[nodiscard]] Fp8Kind fp8_kind(DType dtype);

/// The DType of an FP8 format (the inverse of fp8_kind).
[[nodiscard]] DType fp8_dtype(Fp8Kind kind);

/// Scale-factor granularity (paper section 3.1: per-channel weights,
/// per-tensor activations; per-group scaling from the related work --
/// Zhou et al. / Mellempudi et al. -- is provided for the ablation bench).
enum class Granularity : std::uint8_t { kPerTensor, kPerChannel, kPerGroup };

/// Range-calibration algorithm for static activation quantization
/// (Appendix A.1). The paper found simple absmax ("max") sufficient for
/// FP8; KL/percentile/MSE are implemented for the comparison studies.
enum class CalibMethod : std::uint8_t { kAbsMax, kPercentile, kKlDivergence, kMseSweep };

[[nodiscard]] std::string_view to_string(CalibMethod method);

/// Whole-model quantization scheme: which formats, which approach, which
/// operator coverage. One instance describes one column of paper Table 2.
struct SchemeConfig {
  DType act_dtype = DType::kFP32;     ///< activation format
  DType weight_dtype = DType::kFP32;  ///< weight format (differs under mixed)
  bool dynamic_activations = false;   ///< dynamic vs static (Table 2/6)
  /// Per-token (last-axis row) dynamic activation scales -- the
  /// per-channel/per-token activation scaling the paper cites (Xiao et
  /// al., Dettmers et al.) but excludes from its study because real
  /// kernels pay overhead for it. Implemented here as an ablation;
  /// implies dynamic_activations.
  bool per_token_activations = false;
  bool quantize_extended_ops = false; ///< LayerNorm/BatchNorm/Add/Mul coverage
  bool skip_first_last = true;        ///< CNN first-conv/last-FC exception (3.1)
  CalibMethod act_calib = CalibMethod::kAbsMax;
  double percentile = 0.999;          ///< used when act_calib == kPercentile
  bool smoothquant = false;           ///< SmoothQuant preprocessing (NLP)
  float smoothquant_alpha = 0.5f;     ///< default smoothing alpha

  /// Human-readable config label for result tables, e.g. "E4M3/static".
  [[nodiscard]] std::string label() const;
};

/// The paper's standard scheme for a single FP8 format: per-channel
/// weights, per-tensor activations, compute ops only, first/last kept in
/// high precision. E5M2 uses direct quantization (scale 1) which the
/// quantizer applies automatically for E5M2 activations.
[[nodiscard]] SchemeConfig standard_fp8_scheme(DType fmt, bool dynamic = false);

/// Mixed FP8 format scheme (section 3.2): E4M3 activations (range-bound)
/// with E3M4 weights (precision-bound).
[[nodiscard]] SchemeConfig mixed_fp8_scheme();

/// The INT8 baseline of Table 2: static for CV, dynamic for NLP.
[[nodiscard]] SchemeConfig int8_scheme(bool dynamic);

/// The scheme a format name selects (fp8q_cli eval, fp8qd jobs): "INT8" or
/// "int8" -> int8_scheme(dynamic), "mixed" -> mixed_fp8_scheme(), else the
/// named FP8 format's standard_fp8_scheme; an unknown name throws
/// std::invalid_argument (fp8_kind_from_string).
[[nodiscard]] SchemeConfig scheme_from_name(std::string_view name, bool dynamic);

}  // namespace fp8q
