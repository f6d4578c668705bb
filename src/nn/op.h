// Operator base class for the FP32 emulation substrate.
//
// Every kernel computes in FP32, exactly like the paper's emulation setup;
// quantization happens by snapping weights and operator inputs onto the
// FP8/INT8 grid around these kernels (see src/quant/quantizer.h). An op
// reads its operands in place, by pointer (nn/graph.h), and returns a new
// output tensor.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"

namespace fp8q {

/// Operator kinds, used by the quantization schemes to decide coverage
/// (paper section 3: standard scheme covers Conv/Linear/Embedding plus the
/// MatMuls; the extended scheme adds LayerNorm/BatchNorm/Add/Mul).
enum class OpKind : std::uint8_t {
  kInput,
  kLinear,
  kConv2d,
  kMatMul,
  kBatchMatMul,
  kEmbedding,
  kLayerNorm,
  kBatchNorm,
  kAdd,
  kMul,
  kRelu,
  kGelu,
  kSigmoid,
  kTanh,
  kSilu,
  kHardSwish,
  kLeakyRelu,
  kGroupNorm,
  kConcat,
  kSoftmax,
  kAvgPool,
  kMaxPool,
  kReshape,
  kTranspose,
  kScale,
};

[[nodiscard]] std::string_view to_string(OpKind kind);

/// True for operators that carry trainable weights and do real compute --
/// the standard quantization scheme's operator set.
[[nodiscard]] bool is_compute_op(OpKind kind);

/// True for the memory-bound operators the extended scheme additionally
/// quantizes (LayerNorm, BatchNorm, Add, Mul; paper section 3.2).
[[nodiscard]] bool is_extended_op(OpKind kind);

/// True if the op is quantizable at all under some scheme.
[[nodiscard]] inline bool is_quantizable_op(OpKind kind) {
  return is_compute_op(kind) || is_extended_op(kind);
}

class Op {
 public:
  virtual ~Op() = default;

  /// Runs the FP32 kernel on the operands, which it only reads. Their
  /// number must match `arity()`.
  virtual Tensor forward(std::span<const Tensor* const> inputs) = 0;

  [[nodiscard]] virtual OpKind kind() const = 0;

  /// Number of graph inputs the op consumes.
  [[nodiscard]] virtual int arity() const { return 1; }

  /// Mutable views of the op's weight tensors (empty for weightless ops).
  /// Quantization passes fake-quantize these in place.
  [[nodiscard]] virtual std::vector<Tensor*> weights() { return {}; }

  /// Deep copy, weights included. Lets Graph::clone() produce independent
  /// graphs for concurrent evaluation of one prototype.
  [[nodiscard]] virtual std::unique_ptr<Op> clone() const = 0;

  /// Total parameter count, used for the model-size buckets of Figure 5.
  [[nodiscard]] std::int64_t param_count() {
    std::int64_t n = 0;
    for (Tensor* w : weights()) n += w->numel();
    return n;
  }
};

using OpPtr = std::unique_ptr<Op>;

}  // namespace fp8q
