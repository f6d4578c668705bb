#include "nn/norm.h"

#include <cmath>
#include <stdexcept>

namespace fp8q {

LayerNormOp::LayerNormOp(Tensor gamma, Tensor beta, float eps)
    : gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps) {
  if (gamma_.dim() != 1 || !gamma_.same_shape(beta_)) {
    throw std::invalid_argument("LayerNormOp: gamma/beta must be matching [dim]");
  }
}

Tensor LayerNormOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("LayerNormOp: expects 1 input");
  const Tensor& x = *inputs[0];
  const std::int64_t d = gamma_.size(0);
  if (x.dim() < 1 || x.size(-1) != d) {
    throw std::invalid_argument("LayerNormOp: last axis must match gamma dim");
  }
  const std::int64_t rows = x.numel() / d;
  Tensor y(x.shape());
  const float* xd = x.data();
  const float* g = gamma_.data();
  const float* b = beta_.data();
  float* yd = y.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = xd + r * d;
    float* yr = yd + r * d;
    double mean = 0.0;
    for (std::int64_t i = 0; i < d; ++i) mean += xr[i];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      const double dv = xr[i] - mean;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps_));
    const auto mu = static_cast<float>(mean);
    for (std::int64_t i = 0; i < d; ++i) {
      yr[i] = (xr[i] - mu) * inv * g[i] + b[i];
    }
  }
  return y;
}

BatchNorm2dOp::BatchNorm2dOp(Tensor gamma, Tensor beta, Tensor running_mean,
                             Tensor running_var, float eps)
    : gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      running_mean_(std::move(running_mean)),
      running_var_(std::move(running_var)),
      eps_(eps) {
  if (gamma_.dim() != 1 || !gamma_.same_shape(beta_) ||
      !gamma_.same_shape(running_mean_) || !gamma_.same_shape(running_var_)) {
    throw std::invalid_argument("BatchNorm2dOp: all parameters must be matching [c]");
  }
}

void BatchNorm2dOp::begin_calibration() {
  calibrating_ = true;
  acc_mean_.assign(static_cast<size_t>(gamma_.size(0)), 0.0);
  acc_sqmean_.assign(static_cast<size_t>(gamma_.size(0)), 0.0);
  acc_count_ = 0;
}

void BatchNorm2dOp::finish_calibration() {
  calibrating_ = false;
  if (acc_count_ == 0) return;
  const auto c = gamma_.size(0);
  for (std::int64_t i = 0; i < c; ++i) {
    const double mean = acc_mean_[static_cast<size_t>(i)] / static_cast<double>(acc_count_);
    const double sq = acc_sqmean_[static_cast<size_t>(i)] / static_cast<double>(acc_count_);
    running_mean_[i] = static_cast<float>(mean);
    running_var_[i] = static_cast<float>(std::max(0.0, sq - mean * mean));
  }
}

Tensor BatchNorm2dOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("BatchNorm2dOp: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() != 4 || x.size(1) != gamma_.size(0)) {
    throw std::invalid_argument("BatchNorm2dOp: input must be [n, c, h, w] with matching c");
  }
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t hw = x.size(2) * x.size(3);

  // During calibration the op runs in training mode: each batch is
  // normalized with its *own* per-channel statistics while those statistics
  // are accumulated for the new running stats. This makes the calibration
  // self-consistent in one pass at any network depth -- the outputs each
  // downstream layer sees already match what inference with the committed
  // statistics will produce.
  std::vector<float> batch_mean;
  std::vector<float> batch_var;
  if (calibrating_) {
    batch_mean.assign(static_cast<size_t>(c), 0.0f);
    batch_var.assign(static_cast<size_t>(c), 0.0f);
    const float* xd = x.data();
    const double denom = static_cast<double>(n) * static_cast<double>(hw);
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* plane = xd + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += plane[i];
          s2 += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const double mean = s / denom;
      const double var = std::max(0.0, s2 / denom - mean * mean);
      batch_mean[static_cast<size_t>(ch)] = static_cast<float>(mean);
      batch_var[static_cast<size_t>(ch)] = static_cast<float>(var);
      acc_mean_[static_cast<size_t>(ch)] += mean;
      acc_sqmean_[static_cast<size_t>(ch)] += s2 / denom;
    }
    acc_count_ += 1;  // one batch-level sample per forward
  }

  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float mu = calibrating_ ? batch_mean[static_cast<size_t>(ch)] : running_mean_[ch];
      const float var = calibrating_ ? batch_var[static_cast<size_t>(ch)] : running_var_[ch];
      const float inv = 1.0f / std::sqrt(var + eps_);
      const float g = gamma_[ch] * inv;
      const float bv = beta_[ch] - mu * g;
      const float* xp = xd + (b * c + ch) * hw;
      float* yp = yd + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) yp[i] = xp[i] * g + bv;
    }
  }
  return y;
}

}  // namespace fp8q

namespace fp8q {

GroupNormOp::GroupNormOp(int groups, Tensor gamma, Tensor beta, float eps)
    : groups_(groups), gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps) {
  if (groups_ < 1 || gamma_.dim() != 1 || !gamma_.same_shape(beta_)) {
    throw std::invalid_argument("GroupNormOp: need groups >= 1 and matching [c] params");
  }
  if (gamma_.size(0) % groups_ != 0) {
    throw std::invalid_argument("GroupNormOp: channels not divisible by groups");
  }
}

Tensor GroupNormOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("GroupNormOp: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() != 4 || x.size(1) != gamma_.size(0)) {
    throw std::invalid_argument("GroupNormOp: input must be [n, c, h, w] with matching c");
  }
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t hw = x.size(2) * x.size(3);
  const std::int64_t cpg = c / groups_;

  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (int g = 0; g < groups_; ++g) {
      // Per-sample, per-group statistics over (channels-in-group x h x w).
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t cc = 0; cc < cpg; ++cc) {
        const float* plane = xd + ((b * c) + g * cpg + cc) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += plane[i];
          s2 += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const double denom = static_cast<double>(cpg * hw);
      const double mean = s / denom;
      const double var = std::max(0.0, s2 / denom - mean * mean);
      const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps_));
      const auto mu = static_cast<float>(mean);
      for (std::int64_t cc = 0; cc < cpg; ++cc) {
        const std::int64_t ch = g * cpg + cc;
        const float gain = gamma_[ch] * inv;
        const float shift = beta_[ch] - mu * gain;
        const float* xp = xd + (b * c + ch) * hw;
        float* yp = yd + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) yp[i] = xp[i] * gain + shift;
      }
    }
  }
  return y;
}

}  // namespace fp8q
