#include "core/cpu_dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace fp8q {

namespace {

bool probe_native() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool native_available_cached() {
  static const bool value = probe_native();
  return value;
}

/// FP8Q_ISA parse; falls back to the best supported tier on unset/unknown.
IsaTier env_default_tier() {
  const char* v = std::getenv("FP8Q_ISA");
  if (v != nullptr && std::strcmp(v, "scalar") == 0) return IsaTier::kScalar;
  if (v != nullptr && std::strcmp(v, "batched") == 0) return IsaTier::kBatched;
  // Unset, "native", "avx2" or unknown: the best tier this CPU runs.
  return native_available_cached() ? IsaTier::kNative : IsaTier::kBatched;
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
  }
  return "?";
}

IsaTier isa_tier() {
  const int override_v = g_tier_override.load(std::memory_order_relaxed);
  if (override_v >= 0) return static_cast<IsaTier>(override_v);
  return env_tier_cached();
}

void set_isa_tier(IsaTier tier) {
  if (tier == IsaTier::kNative && !native_available_cached()) tier = IsaTier::kBatched;
  g_tier_override.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void reset_isa_tier() { g_tier_override.store(-1, std::memory_order_relaxed); }

bool isa_native_available() { return native_available_cached(); }

const char* isa_label() {
  switch (isa_tier()) {
    case IsaTier::kScalar: return "scalar";
    case IsaTier::kBatched: return "batched";
    case IsaTier::kNative: return "native:avx2";
  }
  return "?";
}

}  // namespace fp8q
