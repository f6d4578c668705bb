#include "core/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace fp8q {

namespace {

/// The best tier this CPU runs, probed once.
IsaTier best_tier() {
#if defined(__x86_64__)
  static const IsaTier value =
      __builtin_cpu_supports("avx2") == 0 ? IsaTier::kBatched
      : __builtin_cpu_supports("avx512f") == 0 || __builtin_cpu_supports("avx512vl") == 0
          ? IsaTier::kNative
          : IsaTier::kWide;
  return value;
#else
  return IsaTier::kBatched;
#endif
}

/// FP8Q_ISA parse; falls back to the best supported tier on unset/unknown.
IsaTier env_default_tier() {
  const char* v = std::getenv("FP8Q_ISA");
  const auto is = [v](const char* name) { return v != nullptr && std::strcmp(v, name) == 0; };
  if (is("scalar")) return IsaTier::kScalar;
  if (is("batched")) return IsaTier::kBatched;
  if (is("native") || is("avx2")) return runnable_tier(IsaTier::kNative);
  // Unset, "wide", "avx512" or unknown: the best tier this CPU runs.
  return best_tier();
}

IsaTier env_tier_cached() {
  static const IsaTier value = env_default_tier();
  return value;
}

/// -1 = use the FP8Q_ISA / probe default; otherwise an IsaTier value.
std::atomic<int> g_tier_override{-1};

}  // namespace

const char* to_string(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar: return "scalar";
    case IsaTier::kBatched: return "batched";
    case IsaTier::kNative: return "native";
    case IsaTier::kWide: return "wide";
  }
  return "?";
}

IsaTier isa_tier() {
  const int override_v = g_tier_override.load(std::memory_order_relaxed);
  if (override_v >= 0) return static_cast<IsaTier>(override_v);
  return env_tier_cached();
}

void set_isa_tier(IsaTier tier) {
  g_tier_override.store(static_cast<int>(runnable_tier(tier)), std::memory_order_relaxed);
}

void reset_isa_tier() { g_tier_override.store(-1, std::memory_order_relaxed); }

bool isa_native_available() { return best_tier() >= IsaTier::kNative; }

bool isa_wide_available() { return best_tier() == IsaTier::kWide; }

IsaTier runnable_tier(IsaTier tier) { return tier < best_tier() ? tier : best_tier(); }

const char* isa_label() {
  switch (isa_tier()) {
    case IsaTier::kScalar: return "scalar";
    case IsaTier::kBatched: return "batched";
    case IsaTier::kNative: return "native:avx2";
    case IsaTier::kWide: return "wide:avx512";
  }
  return "?";
}

}  // namespace fp8q
