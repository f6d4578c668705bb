#include "service/plan_cache.h"

#include <utility>

namespace fp8q::service {

namespace {

std::size_t tensor_bytes(const std::vector<Tensor>& tensors) {
  std::size_t bytes = 0;
  for (const Tensor& t : tensors) bytes += static_cast<std::size_t>(t.numel()) * sizeof(float);
  return bytes;
}

/// The plan's tensor bytes: prototype weights, calibration batches,
/// SmoothQuant statistics, perturbed inputs and teacher outputs.
std::size_t plan_bytes(const EvalPlan& plan) {
  std::size_t bytes = static_cast<std::size_t>(plan.prototype.param_count()) * sizeof(float);
  for (const auto& batch : plan.calib) bytes += tensor_bytes(batch);
  for (const auto& [id, channel_max] : plan.smoothquant_stats) {
    bytes += channel_max.size() * sizeof(float);
  }
  for (const EvalPlan::PlanBatch& batch : plan.batches) {
    bytes += tensor_bytes(batch.perturbed);
    bytes += static_cast<std::size_t>(batch.clean_fp32_out.numel()) * sizeof(float);
  }
  return bytes;
}

}  // namespace

std::shared_ptr<const EvalPlan> PlanCache::get(const Workload& workload,
                                               const EvalProtocol& protocol) {
  const Key key{workload.name, protocol};
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[key];
    if (slot.entry) {
      ++stats_.hits;
    } else {
      ++stats_.misses;
      slot.entry = std::make_shared<Entry>();
    }
    slot.last_use = ++use_clock_;
    entry = slot.entry;
  }
  // A failed build is caught inside the once-callable and rethrown by every
  // caller, never thrown through call_once: after a throwing once-callable,
  // some call_once implementations (ThreadSanitizer's, for one) never wake
  // the waiters.
  std::call_once(entry->built, [&] {
    try {
      entry->plan = std::make_shared<const EvalPlan>(make_eval_plan(workload, protocol));
    } catch (...) {
      entry->error = std::current_exception();
    }
    finish_build(key, *entry);
  });
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->plan;
}

void PlanCache::finish_build(const Key& key, const Entry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Built entries are the only ones evicted and a failed build drops only
  // its own key, so the key still maps to this entry.
  const auto it = slots_.find(key);
  if (entry.error) {
    slots_.erase(it);
    return;
  }
  it->second.bytes = plan_bytes(*entry.plan);
  stats_.bytes += it->second.bytes;
  evict_locked();
}

void PlanCache::evict_locked() {
  // stats_.bytes is the sum of the slots' bytes, so while it exceeds the
  // capacity some built slot remains to evict.
  while (stats_.bytes > capacity_bytes_) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->second.bytes != 0 &&
          (victim == slots_.end() || it->second.last_use < victim->second.last_use)) {
        victim = it;
      }
    }
    stats_.bytes -= victim->second.bytes;
    slots_.erase(victim);
    ++stats_.evictions;
  }
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats s = stats_;
  s.entries = slots_.size();
  return s;
}

}  // namespace fp8q::service
