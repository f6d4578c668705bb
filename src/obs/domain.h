// Scoped observation domains (docs/OBSERVABILITY.md, docs/THREADING.md).
//
// A CounterDomain is a private copy of the observation state one unit of
// work accumulates: the quantization-event counter matrix, an allocation
// sink, and the fixed histogram channels. A thread binds a domain with
// ScopedCounterDomain; while bound, every obs write primitive
// (counter_add, hist_record, hist_merge, alloc_counter_add) lands
// in the domain instead of the process globals, and every matching
// snapshot function reads the domain's view. Unbound threads are
// untouched: with no domain bound, the primitives hit the same sharded /
// global state they always have, so non-daemon callers see no change.
//
// This exists for concurrent job execution in fp8qd (docs/SERVICE.md):
// with N executor workers running jobs at once, "global counters before
// minus after" no longer isolates one job's events. Instead each job runs
// under a fresh domain -- bound on the executor worker and propagated to
// the core/parallel threads the job fans out to (core/parallel.h) -- so
// its report counter blocks are exact deltas by construction, at any
// worker count and any interleaving. When the job finishes,
// fold_into_global() moves the domain's totals into the enclosing sink
// (the caller's currently bound domain, or the process globals), so
// cumulative process-wide totals -- the daemon's exit report, the stats
// endpoint -- still add up as if no domain had ever been bound.
//
// Determinism: a domain is pure routing. It never changes a computed
// value, and a fold preserves every count exactly (integer adds, exact
// min/max histogram merges), so "sum over domains + globals" is invariant.
//
// Named histograms (hist_record_named) and trace spans stay process-
// global: both are open-ended observational telemetry keyed by name/time,
// not part of a job's deterministic result surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "core/thread_annotations.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/memory.h"

namespace fp8q {

/// One unit of work's private observation state. Writes are relaxed
/// atomics (histograms: a domain-local mutex), so any number of threads
/// bound to the same domain may record concurrently -- the fan-out of one
/// job over the core/parallel pool.
class CounterDomain {
 public:
  CounterDomain() = default;
  CounterDomain(const CounterDomain&) = delete;
  CounterDomain& operator=(const CounterDomain&) = delete;

  // -- write primitives (called by the obs routing layer, not directly) --
  void add(ObsFormat fmt, ObsEvent event, std::uint64_t n);
  void merge_histogram(HistChannel channel, const HistogramSnapshot& snap);
  [[nodiscard]] AllocSink& alloc_sink() { return alloc_sink_; }

  // -- the domain's view (what the snapshot functions return when bound) --
  [[nodiscard]] CounterSnapshot counters() const;
  [[nodiscard]] AllocCounterSnapshot alloc_counters() const { return alloc_sink_.snapshot(); }
  [[nodiscard]] HistogramSnapshot histogram(HistChannel channel) const;

  /// Zeroes one counter family (the reset functions route here when a
  /// domain is bound) or everything.
  void reset_counters();
  void reset_histograms();
  void reset();

  /// Moves (not copies: the domain is left empty) every tally into the
  /// calling thread's enclosing sink -- the currently bound domain when
  /// domains nest, else the process globals. Call after the last
  /// ScopedCounterDomain binding this domain has been destroyed; folding
  /// while still bound routes the counts straight back (a no-op, nothing
  /// is lost). Not safe to call while other threads still write to this
  /// domain.
  void fold_into_global();

 private:
  std::atomic<std::uint64_t> counts_[kObsFormatCount][kObsEventCount] = {};
  AllocSink alloc_sink_;
  mutable std::mutex hist_mutex_;
  HistogramSnapshot hist_channels_[kHistChannelCount] FP8Q_GUARDED_BY(hist_mutex_);
};

/// The calling thread's bound domain, or nullptr (global routing).
[[nodiscard]] CounterDomain* current_counter_domain();

/// Binds `domain` to the calling thread (nullptr restores global routing)
/// and returns the previous binding. Prefer ScopedCounterDomain; this raw
/// form exists for the parallel runtime, which saves/restores around each
/// pool job when propagating the dispatching thread's obs context
/// (core/parallel.cpp).
CounterDomain* set_thread_counter_domain(CounterDomain* domain);

/// RAII binding: routes this thread's obs writes (and the allocation
/// sink, obs/memory.h) to `domain` for the scope's lifetime, restoring
/// the previous binding -- bindings nest -- on destruction. Passing
/// nullptr pins global routing for the scope (a job explicitly opting
/// out of an enclosing domain).
class ScopedCounterDomain {
 public:
  explicit ScopedCounterDomain(CounterDomain* domain);
  ~ScopedCounterDomain();

  ScopedCounterDomain(const ScopedCounterDomain&) = delete;
  ScopedCounterDomain& operator=(const ScopedCounterDomain&) = delete;

 private:
  CounterDomain* prev_domain_;
  AllocSink* prev_sink_;
};

}  // namespace fp8q
