#include "nn/conv.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/gemm.h"

namespace fp8q {

Conv2dOp::Conv2dOp(Tensor weight, Tensor bias, int stride, int padding, int groups)
    : weight_(std::move(weight)),
      bias_(std::move(bias)),
      stride_(stride),
      padding_(padding),
      groups_(groups) {
  if (weight_.dim() != 4) {
    throw std::invalid_argument("Conv2dOp: weight must be [oc, ic/g, kh, kw]");
  }
  if (stride_ < 1 || padding_ < 0 || groups_ < 1) {
    throw std::invalid_argument("Conv2dOp: bad stride/padding/groups");
  }
  if (weight_.size(0) % groups_ != 0) {
    throw std::invalid_argument("Conv2dOp: out channels not divisible by groups");
  }
  if (!bias_.empty() && (bias_.dim() != 1 || bias_.size(0) != weight_.size(0))) {
    throw std::invalid_argument("Conv2dOp: bias must be [oc]");
  }
}

std::vector<Tensor*> Conv2dOp::weights() {
  if (bias_.empty()) return {&weight_};
  return {&weight_, &bias_};
}

Tensor Conv2dOp::forward(std::span<const Tensor> inputs) {
  if (inputs.size() != 1) throw std::invalid_argument("Conv2dOp: expects 1 input");
  const Tensor& x = inputs[0];
  if (x.dim() != 4) throw std::invalid_argument("Conv2dOp: input must be [n, c, h, w]");

  const std::int64_t n = x.size(0);
  const std::int64_t ic = x.size(1);
  const std::int64_t h = x.size(2);
  const std::int64_t w = x.size(3);
  const std::int64_t oc = weight_.size(0);
  const std::int64_t icg = weight_.size(1);
  const std::int64_t kh = weight_.size(2);
  const std::int64_t kw = weight_.size(3);
  if (ic != icg * groups_) throw std::invalid_argument("Conv2dOp: channel mismatch");

  const std::int64_t oh = (h + 2 * padding_ - kh) / stride_ + 1;
  const std::int64_t ow = (w + 2 * padding_ - kw) / stride_ + 1;
  if (oh < 1 || ow < 1) throw std::invalid_argument("Conv2dOp: output would be empty");

  Tensor y({n, oc, oh, ow});
  const float* xd = x.data();
  const float* wd = weight_.data();
  const float* bd = bias_.empty() ? nullptr : bias_.data();
  float* yd = y.data();

  // One GEMM per (image, group): y[ocg, P] += W_g[ocg, K] * col[K, P], with
  // K = icg*kh*kw taps in the weight's (c, ky, kx) order and P = oh*ow
  // output positions. Row kk of col holds tap kk's input value at every
  // output position, +0 where the tap falls in the padding.
  const std::int64_t ocg = oc / groups_;
  const std::int64_t taps = icg * kh * kw;
  const std::int64_t positions = oh * ow;
  const GemmKernel kernel = gemm_kernel(isa_tier());
  std::vector<float> col(static_cast<std::size_t>(taps * positions));
  for (std::int64_t b = 0; b < n; ++b) {
    float* yimg = yd + b * oc * positions;
    if (bd != nullptr) {
      for (std::int64_t o = 0; o < oc; ++o) {
        std::fill_n(yimg + o * positions, positions, bd[o]);
      }
    }
    for (std::int64_t g = 0; g < groups_; ++g) {
      float* row = col.data();
      for (std::int64_t c = 0; c < icg; ++c) {
        const float* xplane = xd + (b * ic + g * icg + c) * h * w;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          for (std::int64_t kx = 0; kx < kw; ++kx, row += positions) {
            for (std::int64_t oy = 0; oy < oh; ++oy) {
              const std::int64_t iy = oy * stride_ - padding_ + ky;
              for (std::int64_t ox = 0; ox < ow; ++ox) {
                const std::int64_t ix = ox * stride_ - padding_ + kx;
                row[oy * ow + ox] = iy >= 0 && iy < h && ix >= 0 && ix < w
                                        ? xplane[iy * w + ix]
                                        : 0.0f;
              }
            }
          }
        }
      }
      kernel(wd + g * ocg * taps, col.data(), yimg + g * ocg * positions, ocg, positions,
             taps);
    }
  }
  return y;
}

}  // namespace fp8q
