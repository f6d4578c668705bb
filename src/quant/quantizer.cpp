#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fp8/cast_fast.h"
#include "obs/trace.h"
#include "quant/calibrate.h"
#include "tensor/stats.h"

namespace fp8q {

namespace {

/// Symmetric weight parameters for `blocks` consecutive blocks of `block`
/// elements of w (the last may be shorter; all are empty when w is), each
/// from its block's NaN-skipping absmax: an FP8 max scale (1 for an
/// all-zero block) or int8_symmetric_params.
void add_block_params(QuantParams& p, const Tensor& w, std::int64_t blocks,
                      std::int64_t block) {
  const std::int64_t n = w.numel();
  const auto data = w.flat();
  for (std::int64_t i = 0; i < blocks; ++i) {
    const float amax = absmax(data.subspan(static_cast<size_t>(i * block),
                                           static_cast<size_t>(std::min(block, n - i * block))));
    if (is_fp8(p.dtype)) {
      p.channel_scales.push_back(amax > 0.0f ? fp8_spec(p.dtype).max_value() / amax : 1.0f);
    } else {
      p.channel_int8.push_back(int8_symmetric_params(amax));
    }
  }
}

/// Quantizes `t` in place in consecutive blocks of `block` elements (the
/// last may be shorter), block i with channel_scales[i] (FP8) or
/// channel_int8[i]. `what` names a block in the count-mismatch error.
void apply_blocks(Tensor& t, const QuantParams& p, std::int64_t block, const char* what) {
  const std::int64_t n = t.numel();
  const std::int64_t blocks = (n + block - 1) / block;
  const bool fp8 = is_fp8(p.dtype);
  const std::size_t have = fp8 ? p.channel_scales.size() : p.channel_int8.size();
  if (static_cast<std::int64_t>(have) != blocks) {
    throw std::invalid_argument(std::string("apply_quant: ") + what +
                                (fp8 ? " scale" : " int8 param") + " count mismatch");
  }
  auto data = t.flat();
  for (std::int64_t i = 0; i < blocks; ++i) {
    auto span = data.subspan(static_cast<size_t>(i * block),
                             static_cast<size_t>(std::min(block, n - i * block)));
    if (fp8) {
      fp8_quantize_scaled_fast(span, span, fast_cast_spec(fp8_kind(p.dtype)),
                               p.channel_scales[static_cast<size_t>(i)]);
    } else {
      int8_quantize(span, span, p.channel_int8[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace

QuantParams make_weight_params(const Tensor& w, DType dtype, Granularity granularity) {
  QuantParams p;
  p.dtype = dtype;
  if (dtype == DType::kFP32) return p;
  p.granularity = granularity;

  if (granularity == Granularity::kPerTensor) {
    const float amax = absmax(w);
    if (is_fp8(dtype)) {
      p.scale = fp8_activation_scale(dtype, amax);
      if (dtype == DType::kE5M2) {
        // Weights always use max scaling, even for E5M2: the direct-cast
        // exception applies to activations only.
        p.scale = amax > 0.0f ? fp8_spec(dtype).max_value() / amax : 1.0f;
      }
    } else {
      p.int8 = int8_symmetric_params(amax);
    }
    return p;
  }

  // Channels lie on axis 0, so each one is a contiguous block.
  if (w.dim() < 1) {
    throw std::invalid_argument("make_weight_params: per-channel needs a channel axis");
  }
  const std::int64_t channels = w.size(0);
  add_block_params(p, w, channels, channels > 0 ? w.numel() / channels : 0);
  return p;
}

QuantParams make_activation_params(DType dtype, float min_v, float max_v) {
  QuantParams p;
  p.dtype = dtype;
  if (dtype == DType::kFP32) return p;
  if (is_fp8(dtype)) {
    const float amax = std::max(std::fabs(min_v), std::fabs(max_v));
    p.scale = fp8_activation_scale(dtype, amax);
  } else {
    p.int8 = int8_asymmetric_params(min_v, max_v);
  }
  return p;
}

QuantParams make_dynamic_activation_params(DType dtype, const Tensor& x) {
  if (dtype == DType::kFP32) return QuantParams{};
  const auto [lo, hi] = minmax(x);
  return make_activation_params(dtype, lo, hi);
}

QuantParams make_group_weight_params(const Tensor& w, DType dtype, std::int64_t group_size) {
  if (group_size <= 0) throw std::invalid_argument("make_group_weight_params: bad group size");
  QuantParams p;
  p.dtype = dtype;
  if (dtype == DType::kFP32) return p;
  p.granularity = Granularity::kPerGroup;
  p.group_size = group_size;
  add_block_params(p, w, (w.numel() + group_size - 1) / group_size, group_size);
  return p;
}

void apply_quant_inplace(Tensor& t, const QuantParams& p) {
  if (p.is_noop() || t.empty()) return;
  if (p.granularity == Granularity::kPerGroup) {
    TraceSpan span("quant/apply-group");
    if (p.group_size <= 0) throw std::invalid_argument("apply_quant: bad group size");
    apply_blocks(t, p, p.group_size, "group");
    return;
  }
  if (p.granularity == Granularity::kPerChannel) {
    TraceSpan span("quant/apply-channel");
    // Channels lie on axis 0, so each one is a contiguous block.
    if (t.dim() < 1) throw std::invalid_argument("apply_quant: per-channel needs a channel axis");
    apply_blocks(t, p, t.numel() / t.size(0), "channel");
    return;
  }
  TraceSpan span("quant/apply-tensor");
  auto data = t.flat();
  if (is_fp8(p.dtype)) {
    fp8_quantize_scaled_fast(data, data, fast_cast_spec(fp8_kind(p.dtype)), p.scale);
  } else {
    int8_quantize(data, data, p.int8);
  }
}

void apply_per_token_dynamic(Tensor& x, DType dtype) {
  if (dtype == DType::kFP32 || x.dim() < 1 || x.empty()) return;
  TraceSpan span("quant/apply-per-token");
  const std::int64_t d = x.size(-1);
  const std::int64_t rows = x.numel() / d;
  auto data = x.flat();
  for (std::int64_t r = 0; r < rows; ++r) {
    auto row = data.subspan(static_cast<size_t>(r * d), static_cast<size_t>(d));
    if (is_fp8(dtype)) {
      const float amax = absmax(row);
      const float scale = fp8_activation_scale(dtype, amax);
      // E5M2 keeps its direct cast (scale 1) even per-token.
      fp8_quantize_scaled_fast(row, row, fast_cast_spec(fp8_kind(dtype)), scale);
    } else {
      const auto [lo, hi] = minmax(row);
      int8_quantize(row, row, int8_asymmetric_params(lo, hi));
    }
  }
}

Tensor apply_quant(const Tensor& t, const QuantParams& p) {
  Tensor out = t;
  apply_quant_inplace(out, p);
  return out;
}

}  // namespace fp8q
