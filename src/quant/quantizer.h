// Tensor-level fake quantization: resolved parameters + application.
//
// The bottom of the quantization stack: a QuantParams is a fully
// resolved recipe for one tensor (format, granularity, scales), and
// apply_quant snaps the tensor through the FP8/INT8 grid and back to
// FP32 -- the software emulation of a hardware cast that the whole
// repro rests on. Everything above (QuantizedGraph, the tuner) only
// decides *which* QuantParams each tensor gets.
//
// The paper's standard scheme (section 3.1) maps to: weights via
// make_weight_params (per-channel symmetric absmax on axis 0),
// activations via make_activation_params from a calibrated range
// (per-tensor; E5M2 direct with scale 1). The extended additions map
// to make_dynamic_activation_params (runtime per-batch scales, section
// 3.2) and the ablation-only make_group_weight_params /
// apply_per_token_dynamic granularities.
//
// Observability: apply_quant_inplace and apply_per_token_dynamic open
// trace spans (quant/apply-tensor, -channel, -group, -per-token) when
// FP8Q_TRACE is on, and the bulk casts they call feed the
// quantization-event counters (docs/OBSERVABILITY.md).
#pragma once

#include <vector>

#include "fp8/int8.h"
#include "quant/qconfig.h"
#include "tensor/tensor.h"

namespace fp8q {

/// Resolved quantization parameters for one tensor.
struct QuantParams {
  DType dtype = DType::kFP32;
  Granularity granularity = Granularity::kPerTensor;
  std::int64_t group_size = 0;  ///< kPerGroup: elements per scale group

  // Per-tensor parameters.
  float scale = 1.0f;  ///< FP8: s = float_max / max_T
  Int8Params int8;

  // Per-channel parameters (weights; channels on axis 0).
  std::vector<float> channel_scales;
  std::vector<Int8Params> channel_int8;

  [[nodiscard]] bool is_noop() const { return dtype == DType::kFP32; }
};

/// Builds weight parameters from the weight tensor itself (per-channel
/// absmax over axis 0, the output channels, or per-tensor when
/// `granularity` says so).
[[nodiscard]] QuantParams make_weight_params(const Tensor& w, DType dtype,
                                             Granularity granularity = Granularity::kPerChannel);

/// Per-group weight parameters: consecutive runs of `group_size` elements
/// (flattened, row-major) share one symmetric scale. Finer than per-channel
/// when group_size is below the channel stride; the ablation bench studies
/// the accuracy/scale-count trade-off (related work: Zhou et al. 2016,
/// Mellempudi et al. 2017).
[[nodiscard]] QuantParams make_group_weight_params(const Tensor& w, DType dtype,
                                                   std::int64_t group_size);

/// Builds static activation parameters from a calibrated range.
/// FP8 uses symmetric max scaling (E5M2: direct, scale 1); INT8 uses the
/// asymmetric affine grid over [min_v, max_v].
[[nodiscard]] QuantParams make_activation_params(DType dtype, float min_v, float max_v);

/// Convenience for symmetric ranges: [-clip, clip].
[[nodiscard]] inline QuantParams make_activation_params(DType dtype, float clip) {
  return make_activation_params(dtype, -clip, clip);
}

/// Builds dynamic activation parameters from the runtime tensor (per-batch
/// min/max; paper section 3.2, "Static vs. Dynamic Quantization").
[[nodiscard]] QuantParams make_dynamic_activation_params(DType dtype, const Tensor& x);

/// Per-token dynamic fake quantization: each last-axis row gets its own
/// scale from its runtime absmax (FP8) or min/max (INT8). The ablation
/// counterpart of the paper's per-tensor activation scheme.
void apply_per_token_dynamic(Tensor& x, DType dtype);

/// Fake-quantizes out-of-place / in-place.
[[nodiscard]] Tensor apply_quant(const Tensor& t, const QuantParams& params);
void apply_quant_inplace(Tensor& t, const QuantParams& params);

}  // namespace fp8q
