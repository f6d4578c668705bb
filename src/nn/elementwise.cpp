#include "nn/elementwise.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/tanh.h"

namespace fp8q {

BinaryOp::BinaryOp(OpKind kind) : kind_(kind) {
  if (kind != OpKind::kAdd && kind != OpKind::kMul) {
    throw std::invalid_argument("BinaryOp: kind must be Add or Mul");
  }
}

Tensor BinaryOp::forward(const Operands& in) {
  if (in.size() != 2) throw std::invalid_argument("BinaryOp: expects 2 inputs");
  if (!in[0].same_shape(in[1])) {
    throw std::invalid_argument("BinaryOp: shape mismatch");
  }
  Tensor y = in.take(0);
  if (kind_ == OpKind::kAdd) {
    y.add(in[1]);
  } else {
    y.mul(in[1]);
  }
  return y;
}

ActivationOp::ActivationOp(OpKind kind) : kind_(kind) {
  switch (kind) {
    case OpKind::kRelu:
    case OpKind::kGelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kSilu:
    case OpKind::kHardSwish:
    case OpKind::kLeakyRelu:
      break;
    default:
      throw std::invalid_argument("ActivationOp: unsupported kind");
  }
}

Tensor ActivationOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("ActivationOp: expects 1 input");
  Tensor y = in.take(0);
  switch (kind_) {
    case OpKind::kRelu:
      for (float& v : y.flat()) v = v > 0.0f ? v : 0.0f;
      break;
    case OpKind::kGelu:
      // tanh approximation of GELU (nn/tanh.h).
      gelu_kernel(isa_tier())(y.data(), y.numel());
      break;
    case OpKind::kSigmoid:
      for (float& v : y.flat()) v = 1.0f / (1.0f + std::exp(-v));
      break;
    case OpKind::kTanh:
      tanh_kernel(isa_tier())(y.data(), y.numel());
      break;
    case OpKind::kSilu:
      // x * sigmoid(x): the swish activation of EfficientNet.
      for (float& v : y.flat()) v = v / (1.0f + std::exp(-v));
      break;
    case OpKind::kHardSwish:
      // x * relu6(x + 3) / 6: MobileNetV3's cheap swish.
      for (float& v : y.flat()) {
        const float r = std::min(6.0f, std::max(0.0f, v + 3.0f));
        v = v * r / 6.0f;
      }
      break;
    case OpKind::kLeakyRelu:
      for (float& v : y.flat()) v = v > 0.0f ? v : 0.01f * v;
      break;
    default:
      break;
  }
  return y;
}

Tensor SoftmaxOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("SoftmaxOp: expects 1 input");
  const Tensor& x = in[0];
  if (x.dim() < 1) throw std::invalid_argument("SoftmaxOp: rank must be >= 1");
  const std::int64_t d = x.size(-1);
  const std::int64_t rows = x.numel() / d;
  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xr = xd + r * d;
    float* yr = yd + r * d;
    float mx = xr[0];
    for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, xr[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      yr[i] = std::exp(xr[i] - mx);
      sum += yr[i];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < d; ++i) yr[i] *= inv;
  }
  return y;
}

Tensor ScaleOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("ScaleOp: expects 1 input");
  Tensor y = in.take(0);
  y.scale(factor_);
  return y;
}

}  // namespace fp8q
