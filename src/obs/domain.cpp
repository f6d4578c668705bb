#include "obs/domain.h"

namespace fp8q {

namespace {
thread_local CounterDomain* tls_domain = nullptr;
}  // namespace

void CounterDomain::add(ObsFormat fmt, ObsEvent event, std::uint64_t n) {
  counts_[static_cast<int>(fmt)][static_cast<int>(event)].fetch_add(
      n, std::memory_order_relaxed);
}

void CounterDomain::merge_histogram(HistChannel channel, const HistogramSnapshot& snap) {
  if (snap.total == 0) return;
  std::lock_guard<std::mutex> lock(hist_mutex_);
  hist_channels_[static_cast<int>(channel)].merge_from(snap);
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

HistogramSnapshot CounterDomain::histogram(HistChannel channel) const {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  return hist_channels_[static_cast<int>(channel)];
}

void CounterDomain::reset_counters() {
  for (auto& row : counts_) {
    for (auto& cell : row) cell.store(0, std::memory_order_relaxed);
  }
}

void CounterDomain::reset_histograms() {
  std::lock_guard<std::mutex> lock(hist_mutex_);
  for (auto& channel : hist_channels_) channel = HistogramSnapshot{};
}

void CounterDomain::reset() {
  reset_counters();
  reset_histograms();
  alloc_sink_.reset();
}

void CounterDomain::fold_into_global() {
  // Each tally is *moved* (exchange/swap with zero), then re-emitted
  // through the ordinary write primitives so the fold lands wherever the
  // calling thread currently routes -- an enclosing domain when domains
  // nest, else the process globals.
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      const std::uint64_t n = counts_[f][e].exchange(0, std::memory_order_relaxed);
      if (n != 0) counter_add(static_cast<ObsFormat>(f), static_cast<ObsEvent>(e), n);
    }
  }
  HistogramSnapshot hists[kHistChannelCount];
  {
    std::lock_guard<std::mutex> lock(hist_mutex_);
    for (int c = 0; c < kHistChannelCount; ++c) {
      hists[c] = hist_channels_[c];
      hist_channels_[c] = HistogramSnapshot{};
    }
  }
  for (int c = 0; c < kHistChannelCount; ++c) {
    if (hists[c].total == 0) continue;
    LocalHistogram local;
    local.snap = hists[c];
    hist_merge(static_cast<HistChannel>(c), local);
  }
  AllocCounterSnapshot allocs;
  allocs.bytes = alloc_sink_.bytes.exchange(0, std::memory_order_relaxed);
  allocs.allocs = alloc_sink_.allocs.exchange(0, std::memory_order_relaxed);
  alloc_counter_merge(allocs);
}

CounterDomain* current_counter_domain() { return tls_domain; }

CounterDomain* set_thread_counter_domain(CounterDomain* domain) {
  CounterDomain* previous = tls_domain;
  tls_domain = domain;
  return previous;
}

ScopedCounterDomain::ScopedCounterDomain(CounterDomain* domain)
    : prev_domain_(set_thread_counter_domain(domain)),
      prev_sink_(set_thread_alloc_sink(domain != nullptr ? &domain->alloc_sink() : nullptr)) {}

ScopedCounterDomain::~ScopedCounterDomain() {
  set_thread_alloc_sink(prev_sink_);
  set_thread_counter_domain(prev_domain_);
}

}  // namespace fp8q
