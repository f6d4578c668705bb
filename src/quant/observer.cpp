#include "quant/observer.h"

#include <algorithm>
#include <cmath>

#include "tensor/stats.h"

namespace fp8q {

Observer::Observer(std::size_t reservoir_capacity) : capacity_(reservoir_capacity) {
  sample_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void Observer::reset() {
  absmax_ = 0.0f;
  min_ = 0.0f;
  max_ = 0.0f;
  count_ = 0;
  sample_.clear();
}

void Observer::observe(const Tensor& t) { observe(t.flat()); }

void Observer::observe(std::span<const float> values) {
  const ValueRange r = value_range(values);
  if (r.count == 0) return;
  // The batch's extremes are its element-order fold, so folding them in
  // here gives the bits of folding every element in stream order.
  if (count_ == 0) {
    min_ = r.min;
    max_ = r.max;
  } else {
    min_ = std::min(min_, r.min);
    max_ = std::max(max_, r.max);
  }
  absmax_ = std::max(absmax_, std::max(std::fabs(r.min), std::fabs(r.max)));
  if (capacity_ == 0) {
    count_ += r.count;
    return;
  }
  for (float x : values) {
    if (std::isnan(x)) continue;
    ++count_;
    // Vitter's algorithm R keeps a uniform sample without storing the
    // whole stream.
    if (sample_.size() < capacity_) {
      sample_.push_back(x);
    } else {
      std::uint64_t rs = rng_state_;
      rs ^= rs >> 12;
      rs ^= rs << 25;
      rs ^= rs >> 27;
      rng_state_ = rs;
      const auto j = static_cast<std::int64_t>((rs * 0x2545F4914F6CDD1Dull) %
                                               static_cast<std::uint64_t>(count_));
      if (j < static_cast<std::int64_t>(capacity_)) {
        sample_[static_cast<size_t>(j)] = x;
      }
    }
  }
}

}  // namespace fp8q
