#include "nn/norm.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/cpu_dispatch.h"

namespace fp8q {
namespace {

// ---------------------------------------------------------------------------
// LayerNorm's rows, one tier each (docs/KERNELS.md). kScalar is the
// reference: per row, the mean and then the variance summed serially in
// double, index ascending, then one float normalize per element. The
// vector tiers run one body, templated on width, with one row in each
// double lane: each lane sums its own row in index order with the
// reference's operations, so every row's mean and inverse deviation, and
// so every output, carry the reference's bits. Each step takes 16 rows,
// two to eight blocks of lanes whose sums interleave, then single blocks;
// rows past the last full block run the reference. The normalize runs at
// the tier's float width. This TU is compiled -ffp-contract=off, so no
// multiply-add fuses into an FMA.
// ---------------------------------------------------------------------------

struct LayerNormRows {
  const float* x;
  const float* gamma;
  const float* beta;
  float eps;
  float* y;
  std::int64_t d;
};

/// A row's float mean and 1 / sqrt(var + eps), from its double mean and
/// variance.
inline void finish_stats(const LayerNormRows& a, double mean, double var, float& mu,
                         float& inv) {
  inv = static_cast<float>(1.0 / std::sqrt(var + a.eps));
  mu = static_cast<float>(mean);
}

/// y = (x - mu) * inv * gamma + beta over row r, kLanes floats at a time
/// where V is a vector, then one element at a time.
template <class V>
inline void normalize_row(const LayerNormRows& a, std::int64_t r, float mu, float inv) {
  const float* xr = a.x + r * a.d;
  float* yr = a.y + r * a.d;
  std::int64_t i = 0;
  if constexpr (!std::is_same_v<V, float>) {
    constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
    for (; i + kLanes <= a.d; i += kLanes) {
      V x;
      V g;
      V b;
      std::memcpy(&x, xr + i, sizeof(V));
      std::memcpy(&g, a.gamma + i, sizeof(V));
      std::memcpy(&b, a.beta + i, sizeof(V));
      const V y = (x - mu) * inv * g + b;
      std::memcpy(yr + i, &y, sizeof(V));
    }
  }
  for (; i < a.d; ++i) yr[i] = (xr[i] - mu) * inv * a.gamma[i] + a.beta[i];
}

/// The reference: rows [r, rows), one at a time.
void layernorm_scalar(const LayerNormRows& a, std::int64_t r, std::int64_t rows) {
  const auto d = static_cast<double>(a.d);
  for (; r < rows; ++r) {
    const float* xr = a.x + r * a.d;
    double mean = 0.0;
    for (std::int64_t i = 0; i < a.d; ++i) mean += xr[i];
    mean /= d;
    double var = 0.0;
    for (std::int64_t i = 0; i < a.d; ++i) {
      const double dv = xr[i] - mean;
      var += dv * dv;
    }
    var /= d;
    float mu = 0.0f;
    float inv = 0.0f;
    finish_stats(a, mean, var, mu, inv);
    normalize_row<float>(a, r, mu, inv);
  }
}

/// kBytes of floats in one vector. A typedef, not a using: GCC drops a
/// dependent vector_size from an alias declaration.
template <class T, int kBytes>
struct VecOf {
  typedef T type __attribute__((vector_size(kBytes)));
};

/// Swaps the off-diagonal S x S blocks of each 2S x 2S block that rows a
/// and b (S rows apart) cross: one stage of an in-register transpose.
template <std::size_t S, class VD, std::size_t... J>
inline void swap_blocks(VD& a, VD& b, std::index_sequence<J...> /*lanes*/) {
  constexpr std::size_t kLanes = sizeof...(J);
  const VD lo = __builtin_shufflevector(a, b, ((J & S) == 0 ? J : kLanes + J - S)...);
  b = __builtin_shufflevector(a, b, ((J & S) == 0 ? J + S : kLanes + J)...);
  a = lo;
}

/// t[i][j] becomes t[j][i]: the stages S = L / 2, ..., 1.
template <std::size_t S, std::size_t L, class VD>
inline void transpose_lanes(VD (&t)[L]) {
  if constexpr (S >= 1) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < L; ++i) {
      if ((i & S) == 0) swap_blocks<S>(t[i], t[i + S], std::make_index_sequence<L>{});
    }
    transpose_lanes<S / 2>(t);
  }
}

/// Column i of the L rows from x, as doubles, to cols + i * L: lane l
/// holds row l's element i.
template <class VD>
inline void load_columns(const float* x, std::int64_t d, double* cols) {
  constexpr std::size_t kL = sizeof(VD) / sizeof(double);
  using VH = typename VecOf<float, kL * sizeof(float)>::type;  // L floats of one row
  std::int64_t i = 0;
  for (; i + static_cast<std::int64_t>(kL) <= d; i += kL) {
    VD t[kL];
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kL; ++l) {
      VH h;
      std::memcpy(&h, x + static_cast<std::int64_t>(l) * d + i, sizeof(VH));
      t[l] = __builtin_convertvector(h, VD);
    }
    transpose_lanes<kL / 2>(t);
    std::memcpy(cols + i * static_cast<std::int64_t>(kL), t, sizeof(t));
  }
  for (; i < d; ++i) {
    for (std::size_t l = 0; l < kL; ++l) {
      cols[i * static_cast<std::int64_t>(kL) + static_cast<std::int64_t>(l)] =
          x[static_cast<std::int64_t>(l) * d + i];
    }
  }
}

/// Rows [r, r + R * L) as R blocks of L rows, one row per double lane.
/// The R blocks' sums are independent chains, interleaved to hide the
/// latency of each add. cols holds R * d * L doubles of scratch.
template <class VD, class VF, int R>
inline void layernorm_blocks(const LayerNormRows& a, std::int64_t r, double* cols) {
  constexpr std::int64_t kL = sizeof(VD) / sizeof(double);
  const auto d = static_cast<double>(a.d);
  for (int q = 0; q < R; ++q) load_columns<VD>(a.x + (r + q * kL) * a.d, a.d, cols + q * a.d * kL);
  auto column = [&](int q, std::int64_t i, VD& col) {
    std::memcpy(&col, cols + (q * a.d + i) * kL, sizeof(VD));
  };
  VD mean[R] = {};
  for (std::int64_t i = 0; i < a.d; ++i) {
#pragma GCC unroll 8
    for (int q = 0; q < R; ++q) {
      VD col;
      column(q, i, col);
      mean[q] = mean[q] + col;
    }
  }
  VD var[R] = {};
#pragma GCC unroll 8
  for (int q = 0; q < R; ++q) mean[q] = mean[q] / d;
  for (std::int64_t i = 0; i < a.d; ++i) {
#pragma GCC unroll 8
    for (int q = 0; q < R; ++q) {
      VD col;
      column(q, i, col);
      const VD dv = col - mean[q];
      var[q] = var[q] + dv * dv;
    }
  }
  for (int q = 0; q < R; ++q) {
    var[q] = var[q] / d;
    for (std::int64_t l = 0; l < kL; ++l) {
      float mu = 0.0f;
      float inv = 0.0f;
      finish_stats(a, mean[q][l], var[q][l], mu, inv);
      normalize_row<VF>(a, r + q * kL + l, mu, inv);
    }
  }
}

/// Rows in steps of kStepRows, R blocks of L = kBytes / 8 rows each, then
/// by one block, then the reference for the rest.
template <int kBytes>
void layernorm_vector(const LayerNormRows& a, std::int64_t rows) {
  using VD = typename VecOf<double, kBytes>::type;
  using VF = typename VecOf<float, kBytes>::type;
  constexpr std::int64_t kStepRows = 16;  // by measurement: 8 ran the wide tier 15-30% slower
  constexpr std::int64_t kL = kBytes / static_cast<std::int64_t>(sizeof(double));
  constexpr int kR = kStepRows / kL;
  const auto cols =
      std::make_unique_for_overwrite<double[]>(static_cast<std::size_t>(a.d * kStepRows));
  std::int64_t r = 0;
  for (; r + kR * kL <= rows; r += kR * kL) layernorm_blocks<VD, VF, kR>(a, r, cols.get());
  if constexpr (kR > 1) {
    for (; r + kL <= rows; r += kL) layernorm_blocks<VD, VF, 1>(a, r, cols.get());
  }
  layernorm_scalar(a, r, rows);
}

}  // namespace

LayerNormOp::LayerNormOp(Tensor gamma, Tensor beta, float eps)
    : gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps) {
  if (gamma_.dim() != 1 || !gamma_.same_shape(beta_)) {
    throw std::invalid_argument("LayerNormOp: gamma/beta must be matching [dim]");
  }
}

Tensor LayerNormOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("LayerNormOp: expects 1 input");
  const Tensor& x = in[0];
  const std::int64_t d = gamma_.size(0);
  if (x.dim() < 1 || x.size(-1) != d) {
    throw std::invalid_argument("LayerNormOp: last axis must match gamma dim");
  }
  const std::int64_t rows = x.numel() / d;
  Tensor y = Tensor::unfilled(x.shape());  // every row is written below
  const LayerNormRows args{x.data(), gamma_.data(), beta_.data(), eps_, y.data(), d};
  run_tier(
      isa_tier(), [&] { layernorm_scalar(args, 0, rows); },
      [&](auto width) { layernorm_vector<decltype(width)::value>(args, rows); });
  return y;
}

BatchNorm2dOp::BatchNorm2dOp(Tensor gamma, Tensor beta, Tensor running_mean,
                             Tensor running_var, float eps)
    : gamma_(std::move(gamma)),
      beta_(std::move(beta)),
      running_mean_(std::move(running_mean)),
      running_var_(std::move(running_var)),
      eps_(eps) {
  if (gamma_.dim() != 1 || !gamma_.same_shape(beta_) ||
      !gamma_.same_shape(running_mean_) || !gamma_.same_shape(running_var_)) {
    throw std::invalid_argument("BatchNorm2dOp: all parameters must be matching [c]");
  }
}

void BatchNorm2dOp::begin_calibration() {
  calibrating_ = true;
  acc_mean_.assign(static_cast<size_t>(gamma_.size(0)), 0.0);
  acc_sqmean_.assign(static_cast<size_t>(gamma_.size(0)), 0.0);
  acc_count_ = 0;
}

void BatchNorm2dOp::finish_calibration() {
  calibrating_ = false;
  if (acc_count_ == 0) return;
  const auto c = gamma_.size(0);
  for (std::int64_t i = 0; i < c; ++i) {
    const double mean = acc_mean_[static_cast<size_t>(i)] / static_cast<double>(acc_count_);
    const double sq = acc_sqmean_[static_cast<size_t>(i)] / static_cast<double>(acc_count_);
    running_mean_[i] = static_cast<float>(mean);
    running_var_[i] = static_cast<float>(std::max(0.0, sq - mean * mean));
  }
}

Tensor BatchNorm2dOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("BatchNorm2dOp: expects 1 input");
  const Tensor& x = in[0];
  if (x.dim() != 4 || x.size(1) != gamma_.size(0)) {
    throw std::invalid_argument("BatchNorm2dOp: input must be [n, c, h, w] with matching c");
  }
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t hw = x.size(2) * x.size(3);

  // During calibration the op runs in training mode: each batch is
  // normalized with its *own* per-channel statistics while those statistics
  // are accumulated for the new running stats. This makes the calibration
  // self-consistent in one pass at any network depth -- the outputs each
  // downstream layer sees already match what inference with the committed
  // statistics will produce.
  std::vector<float> batch_mean;
  std::vector<float> batch_var;
  if (calibrating_) {
    batch_mean.assign(static_cast<size_t>(c), 0.0f);
    batch_var.assign(static_cast<size_t>(c), 0.0f);
    const float* xd = x.data();
    const double denom = static_cast<double>(n) * static_cast<double>(hw);
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* plane = xd + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += plane[i];
          s2 += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const double mean = s / denom;
      const double var = std::max(0.0, s2 / denom - mean * mean);
      batch_mean[static_cast<size_t>(ch)] = static_cast<float>(mean);
      batch_var[static_cast<size_t>(ch)] = static_cast<float>(var);
      acc_mean_[static_cast<size_t>(ch)] += mean;
      acc_sqmean_[static_cast<size_t>(ch)] += s2 / denom;
    }
    acc_count_ += 1;  // one batch-level sample per forward
  }

  Tensor y = Tensor::unfilled(x.shape());  // every plane is written below
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float mu = calibrating_ ? batch_mean[static_cast<size_t>(ch)] : running_mean_[ch];
      const float var = calibrating_ ? batch_var[static_cast<size_t>(ch)] : running_var_[ch];
      const float inv = 1.0f / std::sqrt(var + eps_);
      const float g = gamma_[ch] * inv;
      const float bv = beta_[ch] - mu * g;
      const float* xp = xd + (b * c + ch) * hw;
      float* yp = yd + (b * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) yp[i] = xp[i] * g + bv;
    }
  }
  return y;
}

}  // namespace fp8q

namespace fp8q {

GroupNormOp::GroupNormOp(int groups, Tensor gamma, Tensor beta, float eps)
    : groups_(groups), gamma_(std::move(gamma)), beta_(std::move(beta)), eps_(eps) {
  if (groups_ < 1 || gamma_.dim() != 1 || !gamma_.same_shape(beta_)) {
    throw std::invalid_argument("GroupNormOp: need groups >= 1 and matching [c] params");
  }
  if (gamma_.size(0) % groups_ != 0) {
    throw std::invalid_argument("GroupNormOp: channels not divisible by groups");
  }
}

Tensor GroupNormOp::forward(const Operands& in) {
  if (in.size() != 1) throw std::invalid_argument("GroupNormOp: expects 1 input");
  const Tensor& x = in[0];
  if (x.dim() != 4 || x.size(1) != gamma_.size(0)) {
    throw std::invalid_argument("GroupNormOp: input must be [n, c, h, w] with matching c");
  }
  const std::int64_t n = x.size(0);
  const std::int64_t c = x.size(1);
  const std::int64_t hw = x.size(2) * x.size(3);
  const std::int64_t cpg = c / groups_;

  Tensor y = Tensor::unfilled(x.shape());  // every group's planes are written below
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (int g = 0; g < groups_; ++g) {
      // Per-sample, per-group statistics over (channels-in-group x h x w).
      double s = 0.0;
      double s2 = 0.0;
      for (std::int64_t cc = 0; cc < cpg; ++cc) {
        const float* plane = xd + ((b * c) + g * cpg + cc) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += plane[i];
          s2 += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const double denom = static_cast<double>(cpg * hw);
      const double mean = s / denom;
      const double var = std::max(0.0, s2 / denom - mean * mean);
      const auto inv = static_cast<float>(1.0 / std::sqrt(var + eps_));
      const auto mu = static_cast<float>(mean);
      for (std::int64_t cc = 0; cc < cpg; ++cc) {
        const std::int64_t ch = g * cpg + cc;
        const float gain = gamma_[ch] * inv;
        const float shift = beta_[ch] - mu * gain;
        const float* xp = xd + (b * c + ch) * hw;
        float* yp = yd + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) yp[i] = xp[i] * gain + shift;
      }
    }
  }
  return y;
}

}  // namespace fp8q
