#include "obs/counters.h"

#include <atomic>
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
  if (n != 0) current_counter_domain()->add(fmt, event, n);
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

CounterSnapshot counters_snapshot() { return current_counter_domain()->counters(); }

void counters_reset() { current_counter_domain()->reset_counters(); }

}  // namespace fp8q
