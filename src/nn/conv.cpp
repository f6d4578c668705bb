#include "nn/conv.h"

#include <algorithm>
#include <memory>
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

Tensor Conv2dOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("Conv2dOp: expects 1 input");
  const Tensor& x = in[0];
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

  Tensor y = Tensor::unfilled({n, oc, oh, ow});  // every output is copied out of a grid
  const float* xd = x.data();
  const float* wd = weight_.data();
  const float* bd = bias_.empty() ? nullptr : bias_.data();
  float* yd = y.data();

  // One GEMM per (image, group): grid[ocg, cols] += W_g[ocg, K] * b[K, cols],
  // with K = icg*kh*kw taps in the weight's (c, ky, kx) order. b is a
  // zero-bordered copy of the group's input planes: each channel is an
  // hp x wp plane, the image at (padding, padding), plus kw - 1 floats of
  // slack. Grid column q = gy*wp + gx is the window whose top-left corner
  // is (gy, gx), so tap (c, ky, kx) of every window lies at the one offset
  // c*plane + ky*wp + kx from q: those tap offsets are b's rows, and a tap
  // in the padding reads the border's +0. The grid is the stride-1 windows
  // of the first (oh-1)*stride + 1 rows, and output (oy, ox) is the
  // window at (oy*stride, ox*stride). Windows that wrap past a row's end
  // (into the next row or the slack) are never kept.
  const std::int64_t ocg = oc / groups_;
  const std::int64_t taps = icg * kh * kw;
  const std::int64_t wp = w + 2 * padding_;
  const std::int64_t plane = (h + 2 * padding_) * wp + kw - 1;
  const std::int64_t cols = ((oh - 1) * stride_ + 1) * wp;
  std::vector<std::int64_t> tap_offsets(static_cast<std::size_t>(taps));
  for (std::int64_t c = 0, kk = 0; c < icg; ++c) {
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx) tap_offsets[kk++] = c * plane + ky * wp + kx;
    }
  }
  // Only the image interiors are ever written, so the border stays zero.
  // The grid is bias-filled before each GEMM, so it starts unwritten.
  std::vector<float> padded(static_cast<std::size_t>(icg * plane), 0.0f);
  const auto grid = std::make_unique_for_overwrite<float[]>(static_cast<std::size_t>(ocg * cols));
  const GemmKernel kernel = gemm_kernel(isa_tier());
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t g = 0; g < groups_; ++g) {
      for (std::int64_t c = 0; c < icg; ++c) {
        const float* xplane = xd + (b * ic + g * icg + c) * h * w;
        float* dst = padded.data() + c * plane + padding_ * wp + padding_;
        for (std::int64_t iy = 0; iy < h; ++iy) std::copy_n(xplane + iy * w, w, dst + iy * wp);
      }
      for (std::int64_t o = 0; o < ocg; ++o) {
        std::fill_n(grid.get() + o * cols, cols, bd != nullptr ? bd[g * ocg + o] : 0.0f);
      }
      kernel(wd + g * ocg * taps, padded.data(), tap_offsets.data(), grid.get(), ocg, cols, taps);
      for (std::int64_t o = 0; o < ocg; ++o) {
        const float* src = grid.get() + o * cols;
        float* yplane = yd + (b * oc + g * ocg + o) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            yplane[oy * ow + ox] = src[oy * stride_ * wp + ox * stride_];
          }
        }
      }
    }
  }
  return y;
}

}  // namespace fp8q
