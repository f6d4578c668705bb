// Operator base class for the FP32 emulation substrate.
//
// Every kernel computes in FP32, exactly like the paper's emulation setup;
// quantization happens by snapping weights and operator inputs onto the
// FP8/INT8 grid around these kernels (see src/quant/quantizer.h). An op
// reads its operands in place, by pointer (nn/graph.h), and returns its
// output tensor. Where the op is an operand's last reader, it may take
// that operand's buffer and write its output there instead of copying it;
// a caller's input is never taken.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
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

/// One call's operands. `in[s]` reads slot s in place; `in.take(s)` returns
/// slot s as a tensor of the caller's own: the operand itself, moved, where
/// the executor made this call its last reader (Graph::run decides), else a
/// copy. A taken slot is not read again.
class Operands {
 public:
  /// Operands that are only read: take() copies. Accepts a span or array
  /// of operand pointers.
  template <class Values>
    requires std::convertible_to<const Values&, std::span<const Tensor* const>>
  Operands(const Values& values) : values_(values) {}

  /// `owned[s]`, where not null, is slot s's operand, which take(s) moves.
  Operands(std::span<const Tensor* const> values, std::span<Tensor* const> owned)
      : values_(values), owned_(owned) {}

  [[nodiscard]] int size() const { return static_cast<int>(values_.size()); }
  [[nodiscard]] const Tensor& operator[](int s) const {
    return *values_[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] Tensor take(int s) const {
    const auto i = static_cast<std::size_t>(s);
    if (i < owned_.size() && owned_[i]) return std::move(*owned_[i]);
    return *values_[i];
  }

 private:
  std::span<const Tensor* const> values_;
  std::span<Tensor* const> owned_;
};

class Op {
 public:
  virtual ~Op() = default;

  /// Runs the FP32 kernel on the operands, whose number must match
  /// `arity()`. It reads them, or takes one to write its output in place.
  virtual Tensor forward(const Operands& in) = 0;

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
