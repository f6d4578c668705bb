#include "fp8/packed.h"

#include <stdexcept>

#include "fp8/cast.h"
#include "tensor/stats.h"

namespace fp8q {

PackedFp8Tensor PackedFp8Tensor::pack_per_channel(const Tensor& t, Fp8Kind kind) {
  if (t.dim() < 1) throw std::invalid_argument("pack_per_channel: need rank >= 1");
  if (t.size(0) == 0) {
    // channels == 0 would divide by zero computing the block size below.
    throw std::invalid_argument("pack_per_channel: need size(0) > 0");
  }
  PackedFp8Tensor p;
  p.kind_ = kind;
  p.shape_ = t.shape();
  const auto& spec = format_spec(kind);
  const auto maxima = absmax_per_channel(t, 0);
  p.scales_.resize(maxima.size());
  for (size_t c = 0; c < maxima.size(); ++c) {
    p.scales_[c] = maxima[c] > 0.0f ? spec.max_value() / maxima[c] : 1.0f;
  }
  const std::int64_t channels = t.size(0);
  const std::int64_t block = t.numel() / channels;
  p.codes_.resize(static_cast<size_t>(t.numel()));
  const auto data = t.flat();
  for (std::int64_t c = 0; c < channels; ++c) {
    const float s = p.scales_[static_cast<size_t>(c)];
    for (std::int64_t i = 0; i < block; ++i) {
      const auto idx = static_cast<size_t>(c * block + i);
      p.codes_[idx] = fp8_encode(data[idx] * s, spec);
    }
  }
  return p;
}

PackedFp8Tensor PackedFp8Tensor::pack_per_tensor(const Tensor& t, Fp8Kind kind) {
  PackedFp8Tensor p;
  p.kind_ = kind;
  p.shape_ = t.shape();
  const auto& spec = format_spec(kind);
  const float amax = absmax(t);
  p.scales_ = {amax > 0.0f ? spec.max_value() / amax : 1.0f};
  p.codes_.resize(static_cast<size_t>(t.numel()));
  const auto data = t.flat();
  const float s = p.scales_[0];
  for (size_t i = 0; i < p.codes_.size(); ++i) {
    p.codes_[i] = fp8_encode(data[i] * s, spec);
  }
  return p;
}

Tensor PackedFp8Tensor::unpack() const {
  Tensor t(shape_);
  const auto& spec = format_spec(kind_);
  auto data = t.flat();
  if (scales_.size() <= 1) {
    const float inv = scales_.empty() ? 1.0f : 1.0f / scales_[0];
    for (size_t i = 0; i < codes_.size(); ++i) data[i] = fp8_decode(codes_[i], spec) * inv;
    return t;
  }
  const auto channels = static_cast<std::int64_t>(scales_.size());
  const std::int64_t block = t.numel() / channels;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float inv = 1.0f / scales_[static_cast<size_t>(c)];
    for (std::int64_t i = 0; i < block; ++i) {
      const auto idx = static_cast<size_t>(c * block + i);
      data[idx] = fp8_decode(codes_[idx], spec) * inv;
    }
  }
  return t;
}

}  // namespace fp8q
