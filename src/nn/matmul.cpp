#include "nn/matmul.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "nn/gemm.h"

namespace fp8q {

MatMulOp::MatMulOp(bool batched, bool transpose_b)
    : batched_(batched), transpose_b_(transpose_b) {}

Tensor MatMulOp::forward(const Operands& in) {
  if (in.size() != 2) throw std::invalid_argument("MatMulOp: expects 2 inputs");
  const Tensor& a = in[0];
  const Tensor& b = in[1];
  if (a.dim() < 2 || b.dim() < 2 || a.dim() != b.dim()) {
    throw std::invalid_argument("MatMulOp: operands must share rank >= 2");
  }
  for (int i = 0; i < a.dim() - 2; ++i) {
    if (a.size(i) != b.size(i)) throw std::invalid_argument("MatMulOp: batch dims differ");
  }

  const std::int64_t m = a.size(-2);
  const std::int64_t k = a.size(-1);
  const std::int64_t bk = transpose_b_ ? b.size(-1) : b.size(-2);
  const std::int64_t n = transpose_b_ ? b.size(-2) : b.size(-1);
  if (bk != k) throw std::invalid_argument("MatMulOp: inner dims differ");

  std::int64_t batch = 1;
  for (int i = 0; i < a.dim() - 2; ++i) batch *= a.size(i);

  Shape out_shape = a.shape();
  out_shape[out_shape.size() - 2] = m;
  out_shape[out_shape.size() - 1] = n;
  Tensor y(std::move(out_shape));

  const float* ad = a.data();
  const float* bd = b.data();
  float* yd = y.data();
  const std::int64_t a_stride = m * k;
  const std::int64_t b_stride = k * n;
  const std::int64_t y_stride = m * n;

  // The kernel wants each batch's B as [k, n], which is B's own layout
  // unless transpose_b_ is set; then each [n, k] slice is transposed once
  // per call into scratch the transposes write in full. y keeps its
  // zeros: the GEMM adds into it.
  std::unique_ptr<float[]> bt;
  if (transpose_b_) {
    bt = std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(b.numel()));
    for (std::int64_t bi = 0; bi < batch; ++bi) {
      transpose(bd + bi * b_stride, n, k, bt.get() + bi * b_stride);
    }
    bd = bt.get();
  }

  const GemmKernel kernel = gemm_kernel(isa_tier());
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    kernel(ad + bi * a_stride, bd + bi * b_stride, yd + bi * y_stride, m, n, k);
  }
  return y;
}

}  // namespace fp8q
