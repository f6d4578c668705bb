// Memory accounting: RSS sampling and tensor-allocation counters
// (docs/OBSERVABILITY.md).
//
// Two complementary views of a run's memory behavior:
//
//   peak_rss_bytes()     the OS's high-water mark for the process
//                        (getrusage ru_maxrss), sampled at call time --
//                        monotonically nondecreasing over a process
//                        lifetime, 0 where unsupported.
//   alloc counters       bytes/allocations routed through Tensor's
//                        allocating constructors (tensor/tensor.cpp) --
//                        allocation *traffic*, counting copies too, which
//                        is what per-stage deltas in the run report need.
//
// The counters are always-on process-global relaxed atomics: one add per
// tensor construction, not per element, is cheap enough to need no gate.
// This header is the bottom of the obs layer: it must stay dependency-free because fp8q_tensor links it
// (as fp8q_obs_base) while the rest of obs sits above tensor via metrics.
//
// Scoped routing: a thread may bind an AllocSink (set_thread_alloc_sink);
// while bound, alloc_counter_add and alloc_counters_snapshot act on the
// sink instead of the process globals. This is the obs-base slice of the
// scoped observation domains in obs/domain.h -- a CounterDomain owns one
// AllocSink and binds it together with the counter/histogram routing, so
// per-job allocation deltas in the fp8qd service are computed against the
// job's own domain (docs/OBSERVABILITY.md, "Observation domains").
#pragma once

#include <atomic>
#include <cstdint>

namespace fp8q {

/// Adds one allocation of `bytes` to the calling thread's bound sink, or
/// to the global tally when no sink is bound. No-op for 0 bytes.
void alloc_counter_add(std::uint64_t bytes);

/// Point-in-time allocation totals since process start (or the last reset).
struct AllocCounterSnapshot {
  std::uint64_t bytes = 0;   ///< total bytes routed through counted allocations
  std::uint64_t allocs = 0;  ///< number of counted allocations

  /// Component-wise delta (for per-stage accounting); saturates at 0 if a
  /// reset happened in between.
  [[nodiscard]] AllocCounterSnapshot since(const AllocCounterSnapshot& earlier) const {
    AllocCounterSnapshot d;
    d.bytes = bytes >= earlier.bytes ? bytes - earlier.bytes : 0;
    d.allocs = allocs >= earlier.allocs ? allocs - earlier.allocs : 0;
    return d;
  }

  friend bool operator==(const AllocCounterSnapshot&, const AllocCounterSnapshot&) = default;
};

/// Totals of the calling thread's bound sink when one is bound, else the
/// process globals.
[[nodiscard]] AllocCounterSnapshot alloc_counters_snapshot();

/// Zeroes the calling thread's bound sink when one is bound, else the
/// process globals. Call only between runs.
void alloc_counters_reset();

/// A private allocation tally a thread binds in place of the process
/// globals -- the obs-base slice of an observation domain (obs/domain.h).
/// Writers are relaxed atomics exactly like the globals, so any number of
/// threads bound to the same sink may add concurrently.
struct AllocSink {
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> allocs{0};

  [[nodiscard]] AllocCounterSnapshot snapshot() const {
    AllocCounterSnapshot snap;
    snap.bytes = bytes.load(std::memory_order_relaxed);
    snap.allocs = allocs.load(std::memory_order_relaxed);
    return snap;
  }

  void reset() {
    bytes.store(0, std::memory_order_relaxed);
    allocs.store(0, std::memory_order_relaxed);
  }
};

/// The calling thread's bound sink, or nullptr (global routing).
[[nodiscard]] AllocSink* current_alloc_sink();

/// Binds `sink` to the calling thread (nullptr restores global routing)
/// and returns the previously bound sink so callers can nest. The usual
/// owner of the save/restore pairing is ScopedCounterDomain (obs/domain.h),
/// which binds its domain's sink together with the counter routing.
AllocSink* set_thread_alloc_sink(AllocSink* sink);

/// Adds a pre-aggregated (bytes, allocs) delta to the calling thread's
/// bound sink or the globals -- the domain fold primitive. Unlike
/// alloc_counter_add this does not count one allocation per call.
void alloc_counter_merge(const AllocCounterSnapshot& delta);

/// Peak resident set size of the process in bytes, sampled now; 0 when the
/// platform offers no getrusage. Never decreases within a process.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace fp8q
