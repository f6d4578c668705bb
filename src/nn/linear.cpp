#include "nn/linear.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/gemm.h"

namespace fp8q {

LinearOp::LinearOp(Tensor weight, Tensor bias)
    : weight_(std::move(weight)), bias_(std::move(bias)) {
  if (weight_.dim() != 2) throw std::invalid_argument("LinearOp: weight must be [out, in]");
  if (!bias_.empty() && (bias_.dim() != 1 || bias_.size(0) != weight_.size(0))) {
    throw std::invalid_argument("LinearOp: bias must be [out]");
  }
}

std::vector<Tensor*> LinearOp::weights() {
  if (bias_.empty()) return {&weight_};
  return {&weight_, &bias_};
}

Tensor LinearOp::forward(const Operands& operands) {
  if (operands.size() != 1) throw std::invalid_argument("LinearOp: expects 1 input");
  const Tensor& x = operands[0];
  const std::int64_t in = in_features();
  const std::int64_t out = out_features();
  if (x.dim() < 1 || x.size(-1) != in) {
    throw std::invalid_argument("LinearOp: input feature dim mismatch");
  }
  const std::int64_t rows = x.numel() / in;

  Shape out_shape = x.shape();
  out_shape.back() = out;
  Tensor y(std::move(out_shape));

  // The kernel's b operand is k-major: W^T as [in, out].
  std::vector<float> wt(static_cast<std::size_t>(in * out));
  transpose(weight_.data(), out, in, wt.data());

  const float* xd = x.data();
  const float* bd = bias_.empty() ? nullptr : bias_.data();
  float* yd = y.data();
  if (bd != nullptr) {
    for (std::int64_t r = 0; r < rows; ++r) std::copy(bd, bd + out, yd + r * out);
  }
  gemm_kernel(isa_tier())(xd, wt.data(), yd, rows, out, in);
  return y;
}

}  // namespace fp8q
