#include "obs/histogram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "core/thread_annotations.h"
#include "obs/domain.h"

namespace fp8q {

namespace {

/// One thread's histogram shard: every channel, guarded by one mutex.
/// Recording locks only the owning thread's shard (uncontended in steady
/// state); snapshots lock each shard briefly while merging. Shards are
/// shared_ptr-held by both the registry and the owning thread, so data
/// survives thread exit (pool resizes), mirroring obs/trace.cpp.
struct HistShard {
  std::mutex mutex;
  HistogramSnapshot channels[kHistChannelCount] FP8Q_GUARDED_BY(mutex);
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<HistShard>> shards FP8Q_GUARDED_BY(mutex);
  /// Open-ended named histograms (per-stage latencies): global table,
  /// per-region event rate, so one mutex is fine.
  std::map<std::string, HistogramSnapshot, std::less<>> named FP8Q_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* reg = new Registry();  // leaked: see obs/counters.cpp
  return *reg;
}

HistShard& local_shard() {
  thread_local std::shared_ptr<HistShard> shard = [] {
    auto s = std::make_shared<HistShard>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(s);
    return s;
  }();
  return *shard;
}

/// -1 = use the environment default; 0/1 = explicit override.
std::atomic<int> g_enabled_override{-1};

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool env_default_enabled() {
  static const bool value = env_truthy("FP8Q_HIST") || env_truthy("FP8Q_TRACE") ||
                            std::getenv("FP8Q_REPORT") != nullptr;
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

const char* to_string(HistChannel channel) {
  switch (channel) {
    case HistChannel::kCastMagE5M2: return "cast_mag/e5m2";
    case HistChannel::kCastMagE4M3: return "cast_mag/e4m3";
    case HistChannel::kCastMagE3M4: return "cast_mag/e3m4";
    case HistChannel::kCastMagInt8: return "cast_mag/int8";
    case HistChannel::kCastMagOther: return "cast_mag/other";
    case HistChannel::kStageWallNs: return "latency/stage_ns";
    case HistChannel::kTuneTrialNs: return "latency/tune_trial_ns";
    case HistChannel::kParallelTaskNs: return "latency/parallel_task_ns";
  }
  return "?";
}

HistChannel cast_mag_channel(ObsFormat fmt) {
  static_assert(static_cast<int>(HistChannel::kCastMagE5M2) ==
                static_cast<int>(ObsFormat::kE5M2));
  static_assert(static_cast<int>(HistChannel::kCastMagOther) ==
                static_cast<int>(ObsFormat::kOther));
  return static_cast<HistChannel>(static_cast<int>(fmt));
}

bool histograms_enabled() {
  const int override_v = g_enabled_override.load(std::memory_order_relaxed);
  return override_v >= 0 ? override_v != 0 : env_default_enabled();
}

void set_histograms_enabled(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void hist_record(HistChannel channel, double v) {
  LocalHistogram one;
  one.record(v);
  if (CounterDomain* domain = current_counter_domain()) {
    domain->merge_histogram(channel, one.snap);
    return;
  }
  HistShard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.channels[static_cast<int>(channel)].merge_from(one.snap);
}

void hist_merge(HistChannel channel, const LocalHistogram& local) {
  if (local.snap.total == 0) return;
  if (CounterDomain* domain = current_counter_domain()) {
    domain->merge_histogram(channel, local.snap);
    return;
  }
  HistShard& shard = local_shard();
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.channels[static_cast<int>(channel)].merge_from(local.snap);
}

void hist_record_named(std::string_view name, double v) {
  LocalHistogram one;
  one.record(v);
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  auto it = reg.named.find(name);
  if (it == reg.named.end()) it = reg.named.emplace(std::string(name), HistogramSnapshot{}).first;
  it->second.merge_from(one.snap);
}

HistogramSnapshot histogram_snapshot(HistChannel channel) {
  if (const CounterDomain* domain = current_counter_domain()) return domain->histogram(channel);
  Registry& reg = registry();
  std::vector<std::shared_ptr<HistShard>> shards;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    shards = reg.shards;
  }
  HistogramSnapshot merged;
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    merged.merge_from(shard->channels[static_cast<int>(channel)]);
  }
  return merged;
}

std::vector<NamedHistogram> named_histogram_snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<NamedHistogram> out;
  out.reserve(reg.named.size());
  for (const auto& [name, hist] : reg.named) out.push_back({name, hist});
  return out;  // std::map iteration is already name-sorted
}

std::vector<NamedHistogram> all_histograms_snapshot() {
  std::vector<NamedHistogram> out;
  for (int c = 0; c < kHistChannelCount; ++c) {
    const auto channel = static_cast<HistChannel>(c);
    HistogramSnapshot snap = histogram_snapshot(channel);
    if (snap.any()) out.push_back({to_string(channel), std::move(snap)});
  }
  std::vector<NamedHistogram> named = named_histogram_snapshot();
  out.insert(out.end(), std::make_move_iterator(named.begin()),
             std::make_move_iterator(named.end()));
  std::sort(out.begin(), out.end(),
            [](const NamedHistogram& a, const NamedHistogram& b) { return a.name < b.name; });
  return out;
}

void histograms_reset() {
  if (CounterDomain* domain = current_counter_domain()) {
    domain->reset_histograms();
    return;
  }
  Registry& reg = registry();
  std::vector<std::shared_ptr<HistShard>> shards;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    shards = reg.shards;
    reg.named.clear();
  }
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto& channel : shard->channels) channel = HistogramSnapshot{};
  }
}

}  // namespace fp8q
