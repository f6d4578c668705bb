// Shape manipulation and pooling operators.
#pragma once

#include "nn/op.h"

namespace fp8q {

/// Reshape to a fixed target shape; one axis may be -1 (inferred), and axis
/// value 0 copies the input's axis at that position (batch passthrough).
class ReshapeOp final : public Op {
 public:
  explicit ReshapeOp(Shape target) : target_(std::move(target)) {}

  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kReshape; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<ReshapeOp>(*this); }

 private:
  Shape target_;
};

/// Swaps the last two axes (used to build attention from MatMul primitives).
class TransposeLastTwoOp final : public Op {
 public:
  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kTranspose; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<TransposeLastTwoOp>(*this); }
};

/// Global average pooling over the spatial dims: [n, c, h, w] -> [n, c].
class GlobalAvgPoolOp final : public Op {
 public:
  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kAvgPool; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<GlobalAvgPoolOp>(*this); }
};

/// 2x2 stride-2 max pooling: [n, c, h, w] -> [n, c, h/2, w/2].
class MaxPool2x2Op final : public Op {
 public:
  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kMaxPool; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<MaxPool2x2Op>(*this); }
};

/// Concatenates two tensors along the channel axis (axis 1):
/// [n, c1, ...] + [n, c2, ...] -> [n, c1+c2, ...]. U-Net skip connections.
class ConcatChannelsOp final : public Op {
 public:
  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kConcat; }
  [[nodiscard]] int arity() const override { return 2; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<ConcatChannelsOp>(*this); }
};

/// Nearest-neighbour 2x upsampling: [n, c, h, w] -> [n, c, 2h, 2w]
/// (U-Net decoder path). Reported as a Reshape-class (never quantized) op.
class Upsample2xOp final : public Op {
 public:
  Tensor forward(std::span<const Tensor* const> inputs) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kReshape; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<Upsample2xOp>(*this); }
};

}  // namespace fp8q
