// 2D convolution (NCHW, optionally grouped/depthwise).
//
// forward() lowers onto the one GEMM microkernel (nn/gemm.h,
// docs/KERNELS.md): for each image and group it copies the group's input
// planes once into a zero-bordered scratch and runs one GEMM of the
// group's [oc/g, ic/g * kh * kw] weight rows over every stride-1 window
// of it, each tap a row offset into the copy, on top of the broadcast
// bias; the output keeps every stride-th row and column of the windows
// that fit. Padded taps enter the sum as +0 * w terms read from the
// border; docs/KERNELS.md states when that is exact.
#pragma once

#include "nn/op.h"

namespace fp8q {

class Conv2dOp final : public Op {
 public:
  /// `weight` is [out_ch, in_ch/groups, kh, kw]; `bias` is [out_ch] or empty.
  Conv2dOp(Tensor weight, Tensor bias, int stride = 1, int padding = 0, int groups = 1);

  /// Input [n, in_ch, h, w] -> [n, out_ch, h', w'].
  Tensor forward(const Operands& in) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kConv2d; }
  [[nodiscard]] std::vector<Tensor*> weights() override;

  [[nodiscard]] std::int64_t out_channels() const { return weight_.size(0); }
  [[nodiscard]] std::int64_t in_channels() const { return weight_.size(1) * groups_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int padding() const { return padding_; }
  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<Conv2dOp>(*this); }

 private:
  Tensor weight_;  ///< [oc, ic/groups, kh, kw]
  Tensor bias_;    ///< [oc] or empty
  int stride_;
  int padding_;
  int groups_;
};

}  // namespace fp8q
