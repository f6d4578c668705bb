// Elementwise and activation operators: Add, Mul (two-input), ReLU, GELU,
// Sigmoid, Tanh, Softmax and constant Scale.
#pragma once

#include "nn/op.h"

namespace fp8q {

/// Two-input elementwise Add (residual connections) or Mul (gating), written
/// into operand 0 where the op may take it.
class BinaryOp final : public Op {
 public:
  explicit BinaryOp(OpKind kind);  ///< kAdd or kMul

  Tensor forward(const Operands& in) override;
  [[nodiscard]] OpKind kind() const override { return kind_; }
  [[nodiscard]] int arity() const override { return 2; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<BinaryOp>(*this); }

 private:
  OpKind kind_;
};

/// One-input activation: ReLU / GELU / Sigmoid / Tanh, computed in place in
/// the operand where the op may take it.
class ActivationOp final : public Op {
 public:
  explicit ActivationOp(OpKind kind);

  Tensor forward(const Operands& in) override;
  [[nodiscard]] OpKind kind() const override { return kind_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<ActivationOp>(*this); }

 private:
  OpKind kind_;
};

/// Softmax over the last axis.
class SoftmaxOp final : public Op {
 public:
  Tensor forward(const Operands& in) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kSoftmax; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<SoftmaxOp>(*this); }
};

/// Multiplies by a compile-time constant (e.g. attention 1/sqrt(d)), in
/// place in the operand where the op may take it.
class ScaleOp final : public Op {
 public:
  explicit ScaleOp(float factor) : factor_(factor) {}

  Tensor forward(const Operands& in) override;
  [[nodiscard]] OpKind kind() const override { return OpKind::kScale; }
  [[nodiscard]] float factor() const { return factor_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<ScaleOp>(*this); }

 private:
  float factor_;
};

}  // namespace fp8q
