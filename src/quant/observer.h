// Range observers: accumulate statistics of activation tensors during the
// calibration pass.
//
// Static activation quantization (the paper's standard scheme, section
// 3.1) needs the activation range before inference: QuantizedGraph
// attaches one Observer per quantized activation edge, streams the
// calibration batches through the FP32 graph, then hands each observer
// to calibrate_clip (quant/calibrate.h) to produce the clip value its
// scale is derived from. Dynamic quantization (section 3.2) skips this
// machinery entirely -- scales come from the runtime tensor.
//
// Besides the running absmax/min/max the observer keeps a bounded
// uniform reservoir sample of values so the percentile / KL / MSE
// calibrators can be evaluated after the fact (Appendix A.1) without
// retaining whole tensors. absmax/min/max are always exact (value_range,
// tensor/stats.h, one vector pass per batch); only the sample-based
// methods see the reservoir. At capacity 0 the observer is range-only:
// it keeps no sample and makes no per-element pass, which is all absmax
// calibration needs. observe() mutates state and is intentionally serial
// -- calibration streams batches in batch order (docs/THREADING.md, "What
// is intentionally serial").
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fp8q {

class Observer {
 public:
  /// The reservoir size the sample-based calibration methods get.
  static constexpr std::size_t kDefaultCapacity = 16384;

  /// `reservoir_capacity` bounds the memory kept for the sample-based
  /// calibration methods (0: range only); absmax/minmax are always exact.
  explicit Observer(std::size_t reservoir_capacity = kDefaultCapacity);

  /// Accumulates one calibration tensor.
  void observe(const Tensor& t);
  void observe(std::span<const float> values);

  [[nodiscard]] float absmax() const { return absmax_; }
  [[nodiscard]] float min() const { return min_; }
  [[nodiscard]] float max() const { return max_; }
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Uniform reservoir sample of observed values (signed).
  [[nodiscard]] const std::vector<float>& sample() const { return sample_; }

  void reset();

 private:
  float absmax_ = 0.0f;
  float min_ = 0.0f;
  float max_ = 0.0f;
  std::int64_t count_ = 0;
  std::size_t capacity_;
  std::vector<float> sample_;
  std::uint64_t rng_state_ = 0x6A09E667F3BCC909ull;
};

}  // namespace fp8q
