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
// The counters are always-on relaxed atomics: one add per tensor
// construction, not per element, is cheap enough to need no gate. Like
// the event counters they live in the calling thread's observation domain
// (obs/domain.h) -- its bound CounterDomain, else the process root -- so
// per-job allocation deltas in the fp8qd service are computed against the
// job's own domain (docs/OBSERVABILITY.md, "Observation domains").
// This file, counters, histogram and domain form the obs-base slice and
// must stay dependency-free: fp8q_tensor links it (as fp8q_obs_base) while
// the rest of obs sits above tensor via metrics.
#pragma once

#include <cstdint>

namespace fp8q {

/// Adds one allocation of `bytes` to the calling thread's domain. No-op
/// for 0 bytes.
void alloc_counter_add(std::uint64_t bytes);

/// Point-in-time allocation totals of a domain since its start (or last
/// reset).
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

/// The calling thread's domain's allocation totals.
[[nodiscard]] AllocCounterSnapshot alloc_counters_snapshot();

/// Zeroes the calling thread's domain's allocation totals. Call only
/// between runs.
void alloc_counters_reset();

/// Peak resident set size of the process in bytes, sampled now; 0 when the
/// platform offers no getrusage. Never decreases within a process.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace fp8q
