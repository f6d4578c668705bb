#include "obs/domain.h"

#include <utility>

namespace fp8q {

namespace {

/// The calling thread's bound domain; nullptr routes to the root.
thread_local CounterDomain* tls_domain = nullptr;

}  // namespace

void CounterDomain::add(ObsFormat fmt, ObsEvent event, std::uint64_t n) {
  counts_[static_cast<int>(fmt)][static_cast<int>(event)].fetch_add(
      n, std::memory_order_relaxed);
}

void CounterDomain::add_alloc(std::uint64_t bytes) {
  alloc_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  allocs_.fetch_add(1, std::memory_order_relaxed);
}

void CounterDomain::merge_histogram(ObsFormat fmt, const HistogramSnapshot& snap) {
  if (snap.total == 0) return;
  std::lock_guard<std::mutex> lock(hist_mutex_);
  hists_[static_cast<int>(fmt)].merge_from(snap);
}

CounterSnapshot CounterDomain::counters() const {
  CounterSnapshot snap;
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      snap.counts[f][e] = counts_[f][e].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

AllocCounterSnapshot CounterDomain::alloc_counters() const {
  AllocCounterSnapshot snap;
  snap.bytes = alloc_bytes_.load(std::memory_order_relaxed);
  snap.allocs = allocs_.load(std::memory_order_relaxed);
  return snap;
}

HistogramSnapshot CounterDomain::histogram(ObsFormat fmt) const {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  return hists_[static_cast<int>(fmt)];
}

void CounterDomain::reset_counters() {
  for (auto& row : counts_) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
}

void CounterDomain::reset_alloc_counters() {
  alloc_bytes_.store(0, std::memory_order_relaxed);
  allocs_.store(0, std::memory_order_relaxed);
}

void CounterDomain::reset_histograms() {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  for (auto& hist : hists_) hist = HistogramSnapshot{};
}

void CounterDomain::fold_into_global() {
  CounterDomain& target = *current_counter_domain();
  if (&target == this) return;
  // Each tally is *moved* (exchange/swap with zero) into the target. The
  // two histogram mutexes are never held together.
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      target.counts_[f][e].fetch_add(counts_[f][e].exchange(0, std::memory_order_relaxed),
                                     std::memory_order_relaxed);
    }
  }
  target.alloc_bytes_.fetch_add(alloc_bytes_.exchange(0, std::memory_order_relaxed),
                                std::memory_order_relaxed);
  target.allocs_.fetch_add(allocs_.exchange(0, std::memory_order_relaxed),
                           std::memory_order_relaxed);
  HistogramSnapshot hists[kObsFormatCount];
  {
    std::lock_guard<std::mutex> lock(hist_mutex_);
    for (int f = 0; f < kObsFormatCount; ++f) std::swap(hists[f], hists_[f]);
  }
  for (int f = 0; f < kObsFormatCount; ++f) {
    target.merge_histogram(static_cast<ObsFormat>(f), hists[f]);
  }
}

CounterDomain* current_counter_domain() {
  return tls_domain != nullptr ? tls_domain : &root_counter_domain();
}

CounterDomain& root_counter_domain() {
  // Intentionally leaked (never destroyed) so threads that outlive static
  // destruction can still write.
  static CounterDomain* root = new CounterDomain();
  return *root;
}

ScopedCounterDomain::ScopedCounterDomain(CounterDomain* domain) : prev_(tls_domain) {
  tls_domain = domain;
}

ScopedCounterDomain::~ScopedCounterDomain() { tls_domain = prev_; }

}  // namespace fp8q
