#include "nn/shape_ops.h"

#include <stdexcept>

namespace fp8q {

Tensor ReshapeOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("ReshapeOp: expects 1 input");
  Shape shape = target_;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == 0) {
      if (static_cast<int>(i) >= inputs[0]->dim()) {
        throw std::invalid_argument("ReshapeOp: passthrough axis beyond input rank");
      }
      shape[i] = inputs[0]->size(static_cast<int>(i));
    }
  }
  return inputs[0]->reshape(std::move(shape));
}

Tensor TransposeLastTwoOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("TransposeOp: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() < 2) throw std::invalid_argument("TransposeOp: rank must be >= 2");
  const std::int64_t m = x.size(-2);
  const std::int64_t n = x.size(-1);
  const std::int64_t batch = x.numel() / (m * n);

  Shape out_shape = x.shape();
  std::swap(out_shape[out_shape.size() - 2], out_shape[out_shape.size() - 1]);
  Tensor y(std::move(out_shape));
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* xb = xd + b * m * n;
    float* yb = yd + b * m * n;
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) yb[j * m + i] = xb[i * n + j];
    }
  }
  return y;
}

Tensor GlobalAvgPoolOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("GlobalAvgPoolOp: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() != 4) throw std::invalid_argument("GlobalAvgPoolOp: input must be [n, c, h, w]");
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t hw = x.size(2) * x.size(3);
  Tensor y({n, c});
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = xd + (b * c + ch) * hw;
      double s = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) s += plane[i];
      yd[b * c + ch] = static_cast<float>(s / static_cast<double>(hw));
    }
  }
  return y;
}

Tensor MaxPool2x2Op::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("MaxPool2x2Op: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() != 4) throw std::invalid_argument("MaxPool2x2Op: input must be [n, c, h, w]");
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  if (h % 2 != 0 || w % 2 != 0) {
    throw std::invalid_argument("MaxPool2x2Op: spatial dims must be even");
  }
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
  Tensor y({n, c, oh, ow});
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* xp = xd + (b * c + ch) * h * w;
      float* yp = yd + (b * c + ch) * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t iy = oy * 2;
          const std::int64_t ix = ox * 2;
          float m = xp[iy * w + ix];
          m = std::max(m, xp[iy * w + ix + 1]);
          m = std::max(m, xp[(iy + 1) * w + ix]);
          m = std::max(m, xp[(iy + 1) * w + ix + 1]);
          yp[oy * ow + ox] = m;
        }
      }
    }
  }
  return y;
}

}  // namespace fp8q

namespace fp8q {

Tensor Upsample2xOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("Upsample2xOp: expects 1 input");
  const Tensor& x = *inputs[0];
  if (x.dim() != 4) throw std::invalid_argument("Upsample2xOp: input must be [n, c, h, w]");
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  Tensor y({n, c, 2 * h, 2 * w});
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t p = 0; p < n * c; ++p) {
    const float* xp = xd + p * h * w;
    float* yp = yd + p * 4 * h * w;
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < w; ++j) {
        const float v = xp[i * w + j];
        yp[(2 * i) * 2 * w + 2 * j] = v;
        yp[(2 * i) * 2 * w + 2 * j + 1] = v;
        yp[(2 * i + 1) * 2 * w + 2 * j] = v;
        yp[(2 * i + 1) * 2 * w + 2 * j + 1] = v;
      }
    }
  }
  return y;
}

}  // namespace fp8q

namespace fp8q {

Tensor ConcatChannelsOp::forward(std::span<const Tensor* const> inputs) {
  if (inputs.size() != 2) throw std::invalid_argument("ConcatChannelsOp: expects 2 inputs");
  const Tensor& a = *inputs[0];
  const Tensor& b = *inputs[1];
  if (a.dim() < 2 || a.dim() != b.dim()) {
    throw std::invalid_argument("ConcatChannelsOp: rank mismatch");
  }
  for (int i = 0; i < a.dim(); ++i) {
    if (i != 1 && a.size(i) != b.size(i)) {
      throw std::invalid_argument("ConcatChannelsOp: non-channel axes must match");
    }
  }
  Shape out_shape = a.shape();
  out_shape[1] = a.size(1) + b.size(1);
  Tensor y(std::move(out_shape));

  const std::int64_t n = a.size(0);
  std::int64_t inner = 1;
  for (int i = 2; i < a.dim(); ++i) inner *= a.size(i);
  const std::int64_t ablk = a.size(1) * inner;
  const std::int64_t bblk = b.size(1) * inner;
  const float* ad = a.data();
  const float* bd = b.data();
  float* yd = y.data();
  for (std::int64_t s = 0; s < n; ++s) {
    std::copy(ad + s * ablk, ad + (s + 1) * ablk, yd + s * (ablk + bblk));
    std::copy(bd + s * bblk, bd + (s + 1) * bblk, yd + s * (ablk + bblk) + ablk);
  }
  return y;
}

}  // namespace fp8q
