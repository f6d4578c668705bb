#include "obs/counters.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "core/thread_annotations.h"
#include "obs/domain.h"

namespace fp8q {

namespace {

/// One thread's slice of the counter matrix. Cells are atomics only so the
/// aggregator can read them without tearing; the owning thread is the sole
/// writer, so relaxed ordering is sufficient everywhere.
struct Shard {
  std::atomic<std::uint64_t> counts[kObsFormatCount][kObsEventCount] = {};
};

/// Registry of live shards plus the folded totals of exited threads.
/// Intentionally leaked (never destroyed) so thread-local destructors that
/// outlive static destruction can still flush into it safely.
struct Registry {
  std::mutex mutex;
  std::vector<Shard*> live FP8Q_GUARDED_BY(mutex);
  CounterSnapshot retired FP8Q_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* reg = new Registry();
  return *reg;
}

/// Owns this thread's shard: registers on first use, and on thread exit
/// folds the shard's totals into the retired accumulator so no events are
/// lost when pool workers are torn down (e.g. a set_num_threads resize).
struct ShardOwner {
  Shard* shard;

  ShardOwner() : shard(new Shard()) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.push_back(shard);
  }

  ~ShardOwner() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (int f = 0; f < kObsFormatCount; ++f) {
      for (int e = 0; e < kObsEventCount; ++e) {
        reg.retired.counts[f][e] += shard->counts[f][e].load(std::memory_order_relaxed);
      }
    }
    std::erase(reg.live, shard);
    delete shard;
  }
};

Shard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

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

const char* to_string(ObsFormat fmt) {
  switch (fmt) {
    case ObsFormat::kE5M2: return "e5m2";
    case ObsFormat::kE4M3: return "e4m3";
    case ObsFormat::kE3M4: return "e3m4";
    case ObsFormat::kInt8: return "int8";
    case ObsFormat::kOther: return "other";
  }
  return "?";
}

const char* to_string(ObsEvent event) {
  switch (event) {
    case ObsEvent::kQuantized: return "quantized";
    case ObsEvent::kSaturated: return "saturated";
    case ObsEvent::kFlushedToZero: return "flushed_to_zero";
    case ObsEvent::kNanProduced: return "nan_produced";
    case ObsEvent::kInfProduced: return "inf_produced";
  }
  return "?";
}

bool counters_enabled() {
  const int override_v = g_enabled_override.load(std::memory_order_relaxed);
  return override_v >= 0 ? override_v != 0 : env_default_enabled();
}

void set_counters_enabled(bool enabled) {
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void counter_add(ObsFormat fmt, ObsEvent event, std::uint64_t n) {
  if (n == 0) return;
  if (CounterDomain* domain = current_counter_domain()) {
    domain->add(fmt, event, n);
    return;
  }
  local_shard()
      .counts[static_cast<int>(fmt)][static_cast<int>(event)]
      .fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t CounterSnapshot::total(ObsEvent event) const {
  std::uint64_t sum = 0;
  for (int f = 0; f < kObsFormatCount; ++f) sum += counts[f][static_cast<int>(event)];
  return sum;
}

bool CounterSnapshot::any() const {
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      if (counts[f][e] != 0) return true;
    }
  }
  return false;
}

CounterSnapshot CounterSnapshot::since(const CounterSnapshot& earlier) const {
  CounterSnapshot delta;
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      delta.counts[f][e] =
          counts[f][e] >= earlier.counts[f][e] ? counts[f][e] - earlier.counts[f][e] : 0;
    }
  }
  return delta;
}

bool operator==(const CounterSnapshot& a, const CounterSnapshot& b) {
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      if (a.counts[f][e] != b.counts[f][e]) return false;
    }
  }
  return true;
}

CounterSnapshot counters_snapshot() {
  if (const CounterDomain* domain = current_counter_domain()) return domain->counters();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  CounterSnapshot snap = reg.retired;
  for (const Shard* shard : reg.live) {
    for (int f = 0; f < kObsFormatCount; ++f) {
      for (int e = 0; e < kObsEventCount; ++e) {
        snap.counts[f][e] += shard->counts[f][e].load(std::memory_order_relaxed);
      }
    }
  }
  return snap;
}

void counters_reset() {
  if (CounterDomain* domain = current_counter_domain()) {
    domain->reset_counters();
    return;
  }
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired = CounterSnapshot{};
  for (Shard* shard : reg.live) {
    for (int f = 0; f < kObsFormatCount; ++f) {
      for (int e = 0; e < kObsEventCount; ++e) {
        shard->counts[f][e].store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace fp8q
