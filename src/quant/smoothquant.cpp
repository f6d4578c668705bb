#include "quant/smoothquant.h"

#include <cmath>
#include <stdexcept>

namespace fp8q {

std::vector<float> smoothquant_factors(std::span<const float> act_absmax,
                                       std::span<const float> weight_absmax,
                                       float alpha) {
  if (act_absmax.size() != weight_absmax.size()) {
    throw std::invalid_argument("smoothquant_factors: size mismatch");
  }
  std::vector<float> s(act_absmax.size(), 1.0f);
  for (size_t j = 0; j < s.size(); ++j) {
    const float a = std::max(act_absmax[j], 1e-8f);
    const float w = std::max(weight_absmax[j], 1e-8f);
    const float f = std::pow(a, alpha) / std::pow(w, 1.0f - alpha);
    s[j] = (std::isfinite(f) && f > 1e-8f) ? f : 1.0f;
  }
  return s;
}

void scale_weight_columns(Tensor& weight, std::span<const float> factors) {
  if (weight.dim() != 2 || static_cast<size_t>(weight.size(1)) != factors.size()) {
    throw std::invalid_argument("scale_weight_columns: weight must be [out, in] matching factors");
  }
  const std::int64_t out = weight.size(0);
  const std::int64_t in = weight.size(1);
  float* wd = weight.data();
  for (std::int64_t o = 0; o < out; ++o) {
    float* row = wd + o * in;
    for (std::int64_t j = 0; j < in; ++j) row[j] *= factors[static_cast<size_t>(j)];
  }
}

void divide_channels(Tensor& x, std::span<const float> factors) {
  if (x.dim() < 1 || static_cast<size_t>(x.size(-1)) != factors.size()) {
    throw std::invalid_argument("divide_channels: last axis must match factors");
  }
  const auto d = static_cast<std::int64_t>(factors.size());
  const std::int64_t rows = d == 0 ? 0 : x.numel() / d;
  float* xd = x.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = xd + r * d;
    for (std::int64_t j = 0; j < d; ++j) row[j] /= factors[static_cast<size_t>(j)];
  }
}

}  // namespace fp8q
