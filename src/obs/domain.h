// Scoped observation domains (docs/OBSERVABILITY.md, docs/THREADING.md).
//
// A CounterDomain holds the observation state one unit of work
// accumulates: the quantization-event counter matrix, the allocation
// tally, and the cast_mag histograms. Every obs primitive (counter_add,
// hist_merge, alloc_counter_add and their snapshot and reset functions)
// acts on the calling thread's domain: the one bound with
// ScopedCounterDomain, else the process's root domain, which every
// unbound thread shares. A non-daemon caller never binds anything, so its
// whole run lands in the root.
//
// This exists for concurrent job execution in fp8qd (docs/SERVICE.md):
// with N executor workers running jobs at once, "root counters before
// minus after" no longer isolates one job's events. Instead each job runs
// under a fresh domain -- bound on the executor worker and propagated to
// the core/parallel threads the job fans out to (core/parallel.h) -- so
// its report counter blocks are exact deltas by construction, at any
// worker count and any interleaving. When the job finishes,
// fold_into_global() moves the domain's totals into the enclosing domain
// (the caller's bound domain, or the root), so cumulative process-wide
// totals -- the daemon's exit report, the stats endpoint -- still add up
// as if no domain had ever been bound.
//
// Determinism: a domain is pure routing. It never changes a computed
// value, and a fold preserves every count exactly (integer adds, exact
// min/max histogram merges), so "sum over domains + root" is invariant.
//
// A domain also carries the RunReport that ScopedStage appends to
// (obs/report.h): active_report() is the calling thread's domain's
// report, and set_active_report() sets the root's. So a job binds one
// domain and its stages land in its own report, on every thread it fans
// out to.
//
// Trace spans stay process-global (obs/trace.h): they are timing
// telemetry keyed by thread and time, not part of a job's deterministic
// result surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "core/thread_annotations.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/memory.h"

namespace fp8q {

struct RunReport;  // obs/report.h, a layer above this one

/// One unit of work's observation state. Counter and allocation writes are
/// relaxed atomics, histogram merges take a domain-local mutex, so any
/// number of threads bound to the same domain may record concurrently --
/// the fan-out of one job over the core/parallel pool, or every unbound
/// thread writing to the root.
class CounterDomain {
 public:
  CounterDomain() = default;
  CounterDomain(const CounterDomain&) = delete;
  CounterDomain& operator=(const CounterDomain&) = delete;

  // -- write primitives (called by the obs routing layer, not directly) --
  void add(ObsFormat fmt, ObsEvent event, std::uint64_t n);
  void add_alloc(std::uint64_t bytes);
  void merge_histogram(ObsFormat fmt, const HistogramSnapshot& snap);

  // -- the domain's view (what the snapshot functions return) --
  [[nodiscard]] CounterSnapshot counters() const;
  [[nodiscard]] AllocCounterSnapshot alloc_counters() const;
  [[nodiscard]] HistogramSnapshot histogram(ObsFormat fmt) const;

  /// Zeroes one family (the reset functions route here).
  void reset_counters();
  void reset_alloc_counters();
  void reset_histograms();

  /// The report this domain's stages append to (obs/report.h), or
  /// nullptr. Not moved by fold_into_global().
  [[nodiscard]] RunReport* report() const { return report_.load(std::memory_order_acquire); }
  void set_report(RunReport* report) { report_.store(report, std::memory_order_release); }

  /// Moves (not copies: the domain is left empty) every tally into the
  /// calling thread's domain -- the enclosing bound domain when domains
  /// nest, else the root. Call after the last ScopedCounterDomain binding
  /// this domain has been destroyed; folding while still bound is a no-op
  /// (nothing is lost). Not safe to call while other threads still write
  /// to this domain.
  void fold_into_global();

 private:
  std::atomic<std::uint64_t> counts_[kObsFormatCount][kObsEventCount] = {};
  std::atomic<std::uint64_t> alloc_bytes_{0};
  std::atomic<std::uint64_t> allocs_{0};
  mutable std::mutex hist_mutex_;
  HistogramSnapshot hists_[kObsFormatCount] FP8Q_GUARDED_BY(hist_mutex_);
  std::atomic<RunReport*> report_{nullptr};
};

/// The domain the calling thread's observations land in: its bound domain,
/// else the process root. Never null.
[[nodiscard]] CounterDomain* current_counter_domain();

/// The process root domain, where every unbound thread's observations
/// land.
[[nodiscard]] CounterDomain& root_counter_domain();

/// RAII binding: routes this thread's obs writes and reads to `domain` for
/// the scope's lifetime, restoring the previous binding -- bindings nest --
/// on destruction. Passing nullptr pins the root for the scope (a job
/// explicitly opting out of an enclosing domain).
class ScopedCounterDomain {
 public:
  explicit ScopedCounterDomain(CounterDomain* domain);
  ~ScopedCounterDomain();

  ScopedCounterDomain(const ScopedCounterDomain&) = delete;
  ScopedCounterDomain& operator=(const ScopedCounterDomain&) = delete;

 private:
  CounterDomain* prev_;
};

}  // namespace fp8q
