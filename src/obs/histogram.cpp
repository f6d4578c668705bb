#include "obs/histogram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "obs/domain.h"

namespace fp8q {

namespace {

/// -1 = use the environment default; 0/1 = explicit override.
std::atomic<int> g_enabled_override{-1};

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool env_default_enabled() {
  static const bool value =
      env_truthy("FP8Q_TRACE") || std::getenv("FP8Q_REPORT") != nullptr;
  return value;
}

}  // namespace

int hist_bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative and NaN (fails the compare)
  const std::uint64_t u = std::bit_cast<std::uint64_t>(v);
  // Unbiased exponent; subnormal doubles read as -1023 and clamp below.
  const int exp = static_cast<int>(u >> 52) - 1023;
  if (exp > kHistMaxExp2) return kHistBucketCount - 1;  // incl. +Inf
  if (exp < kHistMinExp2) return 1;
  const int sub = static_cast<int>((u >> (52 - kHistSubBucketBits)) &
                                   static_cast<std::uint64_t>(kHistSubBuckets - 1));
  return 1 + (exp - kHistMinExp2) * kHistSubBuckets + sub;
}

double hist_bucket_lower_bound(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kHistBucketCount) bucket = kHistBucketCount - 1;
  const int i = bucket - 1;
  const int exp = kHistMinExp2 + i / kHistSubBuckets;
  const int sub = i % kHistSubBuckets;
  // Exact: a dyadic rational scaled by a power of two.
  return std::ldexp(1.0 + static_cast<double>(sub) / kHistSubBuckets, exp);
}

double HistogramSnapshot::quantile(double q) const {
  if (total == 0) return 0.0;
  if (q >= 1.0) return max_value;
  // 1-based rank of the requested order statistic (nearest-rank method).
  double r = std::ceil(q * static_cast<double>(total));
  if (r < 1.0) r = 1.0;
  const auto rank = static_cast<std::uint64_t>(r);
  std::uint64_t cum = 0;
  for (int i = 0; i < kHistBucketCount; ++i) {
    cum += counts[i];
    if (cum >= rank) {
      double rep = hist_bucket_lower_bound(i);
      // The exact extremes tighten the bucket bound (and make a
      // single-value histogram report that value at every q).
      if (rep < min_value) rep = min_value;
      if (rep > max_value) rep = max_value;
      return rep;
    }
  }
  return max_value;  // unreachable when counts sum to total
}

void HistogramSnapshot::merge_from(const HistogramSnapshot& other) {
  if (other.total == 0) return;
  for (int i = 0; i < kHistBucketCount; ++i) counts[i] += other.counts[i];
  if (total == 0) {
    min_value = other.min_value;
    max_value = other.max_value;
  } else {
    if (other.min_value < min_value) min_value = other.min_value;
    if (other.max_value > max_value) max_value = other.max_value;
  }
  total += other.total;
}

bool histograms_enabled() {
  const int override_v = g_enabled_override.load(std::memory_order_relaxed);
  return override_v >= 0 ? override_v != 0 : env_default_enabled();
}

void set_histograms_enabled(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void hist_merge(ObsFormat fmt, const LocalHistogram& local) {
  current_counter_domain()->merge_histogram(fmt, local.snap);
}

HistogramSnapshot histogram_snapshot(ObsFormat fmt) {
  return current_counter_domain()->histogram(fmt);
}

std::vector<NamedHistogram> all_histograms_snapshot() {
  std::vector<NamedHistogram> out;
  for (int f = 0; f < kObsFormatCount; ++f) {
    const auto fmt = static_cast<ObsFormat>(f);
    HistogramSnapshot snap = histogram_snapshot(fmt);
    if (snap.any()) out.push_back({std::string("cast_mag/") + to_string(fmt), std::move(snap)});
  }
  std::sort(out.begin(), out.end(),
            [](const NamedHistogram& a, const NamedHistogram& b) { return a.name < b.name; });
  return out;
}

void histograms_reset() { current_counter_domain()->reset_histograms(); }

}  // namespace fp8q
