// Fully-connected layer: y = x W^T + b.
//
// forward() lowers onto the one GEMM microkernel (nn/gemm.h,
// docs/KERNELS.md): it transposes the [out, in] weight to [in, out] into
// per-call scratch and runs y = x * W^T on top of the broadcast bias. No
// transposed copy is cached, because the weight can change through
// weights() between calls (weight quantization does exactly that).
#pragma once

#include "nn/op.h"

namespace fp8q {

class LinearOp final : public Op {
 public:
  /// `weight` is [out_features, in_features]; `bias` is [out_features] or
  /// empty for no bias.
  LinearOp(Tensor weight, Tensor bias);

  /// Input [..., in_features] -> output [..., out_features].
  Tensor forward(const Operands& in) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kLinear; }
  [[nodiscard]] std::vector<Tensor*> weights() override;
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<LinearOp>(*this); }

  [[nodiscard]] std::int64_t in_features() const { return weight_.size(1); }
  [[nodiscard]] std::int64_t out_features() const { return weight_.size(0); }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

 private:
  Tensor weight_;  ///< [out, in]
  Tensor bias_;    ///< [out] or empty
};

}  // namespace fp8q
