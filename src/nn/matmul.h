// MatMul and BatchMatMul between two graph tensors (e.g. attention scores
// and context products). Both operands come from the graph, so under the
// extended scheme *both* inputs are quantized.
//
// forward() lowers onto the one GEMM microkernel (nn/gemm.h,
// docs/KERNELS.md): B is used in place, or transposed into per-call
// scratch when transpose_b is set.
#pragma once

#include "nn/op.h"

namespace fp8q {

class MatMulOp final : public Op {
 public:
  /// If `batched`, the op reports kind BatchMatMul; the kernel is shared.
  /// `transpose_b` computes A * B^T over the last two axes.
  explicit MatMulOp(bool batched = false, bool transpose_b = false);

  /// A [..., m, k] x B [..., k, n] -> [..., m, n]. Leading batch dims must
  /// match elementwise.
  Tensor forward(std::span<const Tensor* const> inputs) override;

  [[nodiscard]] OpKind kind() const override {
    return batched_ ? OpKind::kBatchMatMul : OpKind::kMatMul;
  }
  [[nodiscard]] int arity() const override { return 2; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<MatMulOp>(*this); }

 private:
  bool batched_;
  bool transpose_b_;
};

}  // namespace fp8q
