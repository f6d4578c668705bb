// The daemon's EvalPlan cache (docs/SERVICE.md, "The plan cache").
//
// fp8qd scores one model under several formats, and each score needs the
// same format-independent EvalPlan: the model, its data, the FP32 teacher
// outputs and the FP32 score. PlanCache builds that plan once per
// (workload, protocol) key and hands every eval job a shared, read-only
// pointer to it:
//
//   * The first get() of a key builds the plan on the calling thread, so
//     the build fans out from it over the global pool and records into the
//     caller's CounterDomain. Concurrent get()s of the same key wait for
//     that build instead of starting another.
//   * A failed build is rethrown to the caller that ran it and to every
//     waiter, and the key is dropped, so the next get() builds again.
//   * Entries are sized by their tensor bytes. While the cached total
//     exceeds the capacity, the least recently used built entries are
//     evicted. A caller's shared_ptr keeps an evicted plan alive.
//
// The cache needs no invalidation: a plan is a pure function of its key,
// bit-identical at any thread count (workloads/workload.h), and building
// one records no quantization events. A served eval job therefore reports
// the same records and counters on a hit as on a cold build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/thread_annotations.h"
#include "workloads/workload.h"

namespace fp8q::service {

/// Capacity fp8qd's cache runs with. The largest full-protocol plan in the
/// suite is about 6 MB, so any five plans fit.
inline constexpr std::size_t kPlanCacheBytes = std::size_t{32} << 20;

/// Point-in-time cache counters (the stats endpoint's plan_cache block).
struct PlanCacheStats {
  std::size_t entries = 0;      ///< cached keys, built or being built
  std::size_t bytes = 0;        ///< tensor bytes of the built entries
  std::uint64_t hits = 0;       ///< get()s that found a built or in-flight entry
  std::uint64_t misses = 0;     ///< get()s that built the plan
  std::uint64_t evictions = 0;  ///< built entries dropped to honor the capacity
};

class PlanCache {
 public:
  /// fp8qd runs with kPlanCacheBytes; tests pass a smaller capacity.
  explicit PlanCache(std::size_t capacity_bytes = kPlanCacheBytes)
      : capacity_bytes_(capacity_bytes) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan make_eval_plan(workload, protocol) returns, built at most
  /// once per key while it stays cached. Throws what the build threw.
  [[nodiscard]] std::shared_ptr<const EvalPlan> get(const Workload& workload,
                                                    const EvalProtocol& protocol);

  [[nodiscard]] PlanCacheStats stats() const;

 private:
  using Key = std::pair<std::string, EvalProtocol>;

  /// One key's plan. `plan` and `error` are set once, by the thread that
  /// runs `built`, and read by the others after their call_once returns.
  struct Entry {
    std::once_flag built;
    std::shared_ptr<const EvalPlan> plan;
    std::exception_ptr error;
  };

  struct Slot {
    std::shared_ptr<Entry> entry;
    std::size_t bytes = 0;       ///< 0 until the plan is built
    std::uint64_t last_use = 0;  ///< use_clock_ at the latest get()
  };

  /// Records a finished build of `key`: a built plan is sized and the
  /// capacity enforced, a failed one is dropped.
  void finish_build(const Key& key, const Entry& entry);
  /// Evicts least recently used built entries until the total fits.
  void evict_locked() FP8Q_REQUIRES(mutex_);

  const std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::map<Key, Slot> slots_ FP8Q_GUARDED_BY(mutex_);
  std::uint64_t use_clock_ FP8Q_GUARDED_BY(mutex_) = 0;
  PlanCacheStats stats_ FP8Q_GUARDED_BY(mutex_);
};

}  // namespace fp8q::service
