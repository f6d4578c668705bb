// LayerNorm and BatchNorm2d.
//
// LayerNorm's rows run through run_tier (core/cpu_dispatch.h, on
// isa_tier()): the scalar reference sums each row's mean and variance
// serially in double, and the vector tiers put one row in each double
// lane and sum it in the same order, so every tier gives the reference's
// bits (docs/KERNELS.md).
//
// BatchNorm2d supports a calibration mode used by the paper's BatchNorm
// Calibration step (section 3, Sun et al. 2019): while calibrating, the op
// re-estimates its running mean/variance from the (quantized) activations
// flowing through it, compensating for the variance shift quantization
// introduces.
#pragma once

#include "nn/op.h"

namespace fp8q {

class LayerNormOp final : public Op {
 public:
  /// `gamma`/`beta` are [dim] over the last axis.
  LayerNormOp(Tensor gamma, Tensor beta, float eps = 1e-5f);

  Tensor forward(const Operands& in) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kLayerNorm; }
  [[nodiscard]] std::vector<Tensor*> weights() override { return {&gamma_, &beta_}; }
  [[nodiscard]] Tensor& gamma() { return gamma_; }
  [[nodiscard]] Tensor& beta() { return beta_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<LayerNormOp>(*this); }

 private:
  Tensor gamma_;
  Tensor beta_;
  float eps_;
};

/// GroupNorm over [n, c, h, w]: channels are split into `groups`, each
/// group normalized by its own per-sample statistics (the normalization of
/// diffusion U-Nets). groups == c is InstanceNorm; groups == 1 is
/// LayerNorm-over-CHW.
class GroupNormOp final : public Op {
 public:
  GroupNormOp(int groups, Tensor gamma, Tensor beta, float eps = 1e-5f);

  Tensor forward(const Operands& in) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kGroupNorm; }
  [[nodiscard]] std::vector<Tensor*> weights() override { return {&gamma_, &beta_}; }
  [[nodiscard]] int groups() const { return groups_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<GroupNormOp>(*this); }

 private:
  int groups_;
  Tensor gamma_;  ///< [c]
  Tensor beta_;   ///< [c]
  float eps_;
};

class BatchNorm2dOp final : public Op {
 public:
  /// All parameters are [channels]; input is [n, c, h, w].
  BatchNorm2dOp(Tensor gamma, Tensor beta, Tensor running_mean, Tensor running_var,
                float eps = 1e-5f);

  Tensor forward(const Operands& in) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kBatchNorm; }
  [[nodiscard]] std::vector<Tensor*> weights() override { return {&gamma_, &beta_}; }

  /// Calibration mode: batches are normalized with running stats as usual,
  /// but batch statistics are accumulated; finish_calibration() commits the
  /// averaged statistics as the new running stats.
  void begin_calibration();
  void finish_calibration();
  [[nodiscard]] bool calibrating() const { return calibrating_; }

  [[nodiscard]] Tensor& running_mean() { return running_mean_; }
  [[nodiscard]] Tensor& running_var() { return running_var_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<BatchNorm2dOp>(*this); }

 private:
  Tensor gamma_;
  Tensor beta_;
  Tensor running_mean_;
  Tensor running_var_;
  float eps_;
  bool calibrating_ = false;
  std::vector<double> acc_mean_;
  std::vector<double> acc_sqmean_;
  std::int64_t acc_count_ = 0;
};

}  // namespace fp8q
