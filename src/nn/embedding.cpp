#include "nn/embedding.h"

#include <cmath>
#include <stdexcept>

namespace fp8q {

EmbeddingOp::EmbeddingOp(Tensor table) : table_(std::move(table)) {
  if (table_.dim() != 2) throw std::invalid_argument("EmbeddingOp: table must be [vocab, dim]");
}

Tensor EmbeddingOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("EmbeddingOp: expects 1 input");
  const Tensor& idx = in[0];
  const std::int64_t vocab = table_.size(0);
  const std::int64_t d = table_.size(1);

  Shape out_shape = idx.shape();
  out_shape.push_back(d);
  Tensor y(std::move(out_shape));

  const float* td = table_.data();
  float* yd = y.data();
  const auto ids = idx.flat();
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto id = static_cast<std::int64_t>(std::lround(ids[i]));
    if (id < 0 || id >= vocab) throw std::out_of_range("EmbeddingOp: index out of range");
    const float* row = td + id * d;
    float* out = yd + static_cast<std::int64_t>(i) * d;
    for (std::int64_t j = 0; j < d; ++j) out[j] = row[j];
  }
  return y;
}

}  // namespace fp8q
