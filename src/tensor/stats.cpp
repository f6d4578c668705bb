#include "tensor/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace fp8q {

namespace {

// The range statistics run on 16-byte GCC vectors (SSE2 on x86-64, NEON
// on AArch64) with no tier table: a min/max fold is bound by memory, and
// the same loops at 32 bytes showed no end-to-end gain beyond noise
// (docs/KERNELS.md, "The fake-quant casts").
using Vec = float __attribute__((vector_size(16)));
using IVec = std::int32_t __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
constexpr float kInf = std::numeric_limits<float>::infinity();

// memcpy is an unaligned load/store.
inline Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, const Vec& v) { std::memcpy(p, &v, sizeof v); }

/// The scalar fold over one span: lo = x < lo ? x : lo and
/// hi = hi < x ? x : hi from (+Inf, -Inf), so a NaN never replaces either
/// and a tie keeps the earlier element; (+Inf, -Inf) means no non-NaN
/// element. Each lane folds its own strided subsequence, then the lanes
/// fold into one. That can change only which zero a zero extreme is, so a
/// short scan then takes the span's first zero, the one the element-order
/// fold keeps. With kCount, `count` gets the number of non-NaN elements,
/// from 32-bit lane counters over chunks of fewer than 2^32 elements.
struct Fold {
  float lo = kInf;
  float hi = -kInf;
  std::int64_t count = 0;
};

template <bool kCount>
Fold fold(const float* v, std::size_t n) {
  constexpr std::size_t kChunk = std::size_t{1} << 31;
  const std::size_t body = n - n % kLanes;
  Vec lo = Vec{} + kInf;
  Vec hi = Vec{} - kInf;
  Fold f;
  for (std::size_t begin = 0; begin < body; begin += kChunk) {
    const std::size_t end = body - begin < kChunk ? body : begin + kChunk;
    IVec nans{};
    for (std::size_t i = begin; i < end; i += kLanes) {
      const Vec x = load(v + i);
      lo = x < lo ? x : lo;
      hi = hi < x ? x : hi;
      if constexpr (kCount) nans -= x != x;
    }
    if constexpr (kCount) {
      f.count += static_cast<std::int64_t>(end - begin);
      for (std::size_t l = 0; l < kLanes; ++l) f.count -= nans[l];
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    f.lo = lo[l] < f.lo ? lo[l] : f.lo;
    f.hi = f.hi < hi[l] ? hi[l] : f.hi;
  }
  for (std::size_t i = body; i < n; ++i) {
    f.lo = v[i] < f.lo ? v[i] : f.lo;
    f.hi = f.hi < v[i] ? v[i] : f.hi;
    if constexpr (kCount) f.count += v[i] == v[i] ? 1 : 0;
  }
  if (f.lo == 0.0f || f.hi == 0.0f) {
    std::size_t z = 0;
    while (v[z] != 0.0f) ++z;
    if (f.lo == 0.0f) f.lo = v[z];
    if (f.hi == 0.0f) f.hi = v[z];
  }
  return f;
}

/// The scalar fold of every channel along `axis`, channel c's elements in
/// index order, as (lo, hi) vectors. The tensor is [outer, channels,
/// inner]: each (outer, channel) pair is one contiguous block of `inner`
/// elements, folded by fold() and merged in outer order; with inner == 1
/// each outer row holds one element per channel and folds into all the
/// channels at once.
std::pair<std::vector<float>, std::vector<float>> fold_channels(const Tensor& t, int axis) {
  if (axis < 0) axis += t.dim();
  if (axis < 0 || axis >= t.dim()) throw std::invalid_argument("bad channel axis");
  const auto channels = static_cast<std::size_t>(t.size(axis));
  std::size_t inner = 1;
  for (int a = axis + 1; a < t.dim(); ++a) inner *= static_cast<std::size_t>(t.size(a));
  const std::size_t block = channels * inner;
  const std::size_t outer = block == 0 ? 0 : static_cast<std::size_t>(t.numel()) / block;
  std::vector<float> lo(channels, kInf);
  std::vector<float> hi(channels, -kInf);
  const float* d = t.data();
  for (std::size_t o = 0; o < outer; ++o, d += block) {
    if (inner > 1) {
      for (std::size_t c = 0; c < channels; ++c) {
        const Fold f = fold<false>(d + c * inner, inner);
        lo[c] = f.lo < lo[c] ? f.lo : lo[c];
        hi[c] = hi[c] < f.hi ? f.hi : hi[c];
      }
      continue;
    }
    std::size_t c = 0;
    for (; c + kLanes <= channels; c += kLanes) {
      const Vec x = load(d + c);
      const Vec l = load(lo.data() + c);
      const Vec h = load(hi.data() + c);
      store(lo.data() + c, x < l ? x : l);
      store(hi.data() + c, h < x ? x : h);
    }
    for (; c < channels; ++c) {
      lo[c] = d[c] < lo[c] ? d[c] : lo[c];
      hi[c] = hi[c] < d[c] ? d[c] : hi[c];
    }
  }
  return {std::move(lo), std::move(hi)};
}

/// Largest magnitude of a fold's extremes; 0 when it saw no value.
float fold_absmax(float lo, float hi) {
  return lo > hi ? 0.0f : std::max(std::fabs(lo), std::fabs(hi));
}

}  // namespace

float absmax(std::span<const float> v) {
  const Fold f = fold<false>(v.data(), v.size());
  return fold_absmax(f.lo, f.hi);
}

std::pair<float, float> minmax(std::span<const float> v) {
  const Fold f = fold<false>(v.data(), v.size());
  if (f.lo > f.hi) return {0.0f, 0.0f};
  return {f.lo, f.hi};
}

ValueRange value_range(std::span<const float> v) {
  const Fold f = fold<true>(v.data(), v.size());
  if (f.count == 0) return {};
  return {f.lo, f.hi, f.count};
}

std::vector<float> absmax_per_channel(const Tensor& t, int axis) {
  const auto [lo, hi] = fold_channels(t, axis);
  std::vector<float> result(lo.size());
  for (std::size_t c = 0; c < lo.size(); ++c) result[c] = fold_absmax(lo[c], hi[c]);
  return result;
}

std::vector<std::pair<float, float>> minmax_per_channel(const Tensor& t, int axis) {
  const auto [lo, hi] = fold_channels(t, axis);
  std::vector<std::pair<float, float>> result(lo.size(), {0.0f, 0.0f});
  for (std::size_t c = 0; c < lo.size(); ++c) {
    if (lo[c] <= hi[c]) result[c] = {lo[c], hi[c]};  // else an empty channel
  }
  return result;
}

SummaryStats summarize(std::span<const float> v) {
  SummaryStats s;
  if (v.empty()) return s;
  double sum = 0.0;
  std::int64_t n = 0;
  bool seen = false;
  for (float x : v) {
    if (std::isnan(x)) continue;
    if (!seen) {
      s.min = s.max = x;
      seen = true;
    }
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    s.absmax = std::max(s.absmax, std::fabs(x));
    sum += x;
    ++n;
  }
  if (n == 0) return s;
  s.mean = sum / static_cast<double>(n);
  double m2 = 0.0;
  double m4 = 0.0;
  for (float x : v) {
    if (std::isnan(x)) continue;
    const double d = x - s.mean;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  s.stddev = std::sqrt(m2);
  s.kurtosis = m2 > 0.0 ? m4 / (m2 * m2) - 3.0 : 0.0;
  return s;
}

float abs_quantile(std::span<const float> v, double q) {
  if (v.empty()) return 0.0f;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<float> mags;
  mags.reserve(v.size());
  for (float x : v) {
    if (!std::isnan(x)) mags.push_back(std::fabs(x));
  }
  if (mags.empty()) return 0.0f;
  const auto k = static_cast<size_t>(q * static_cast<double>(mags.size() - 1) + 0.5);
  std::nth_element(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(k), mags.end());
  return mags[k];
}

std::vector<double> abs_histogram(std::span<const float> v, int bins, float hi) {
  if (bins <= 0) throw std::invalid_argument("abs_histogram: bins must be positive");
  std::vector<double> h(static_cast<size_t>(bins), 0.0);
  if (!(hi > 0.0f)) return h;
  for (float x : v) {
    if (std::isnan(x)) continue;
    const float a = std::fabs(x);
    auto b = static_cast<std::int64_t>(a / hi * static_cast<float>(bins));
    b = std::min<std::int64_t>(b, bins - 1);
    h[static_cast<size_t>(b)] += 1.0;
  }
  return h;
}

double fraction_within_sigma(std::span<const float> v, double k) {
  if (v.empty()) return 0.0;
  const SummaryStats s = summarize(v);
  if (s.stddev <= 0.0) return 1.0;
  std::int64_t inside = 0;
  std::int64_t total = 0;
  for (float x : v) {
    if (std::isnan(x)) continue;
    ++total;
    if (std::fabs(x - s.mean) <= k * s.stddev) ++inside;
  }
  return total > 0 ? static_cast<double>(inside) / static_cast<double>(total) : 0.0;
}

}  // namespace fp8q
