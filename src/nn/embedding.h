// Embedding table lookup. Indices arrive as a float tensor (the substrate
// is single-dtype); they are rounded and bounds-checked.
#pragma once

#include "nn/op.h"

namespace fp8q {

class EmbeddingOp final : public Op {
 public:
  /// `table` is [vocab, dim].
  explicit EmbeddingOp(Tensor table);

  /// Input [...] of indices -> output [..., dim].
  Tensor forward(std::span<const Tensor* const> inputs) override;

  [[nodiscard]] OpKind kind() const override { return OpKind::kEmbedding; }
  [[nodiscard]] std::vector<Tensor*> weights() override { return {&table_}; }

  [[nodiscard]] std::int64_t vocab_size() const { return table_.size(0); }
  [[nodiscard]] std::int64_t dim() const { return table_.size(1); }
  [[nodiscard]] Tensor& table() { return table_; }

  [[nodiscard]] OpPtr clone() const override { return std::make_unique<EmbeddingOp>(*this); }

 private:
  Tensor table_;
};

}  // namespace fp8q
