// Parallel quantization runtime (see docs/THREADING.md for the contract).
//
// A lazily-initialized global thread pool drives two primitives, both
// scheduled by one key-ordered unit stream (each is documented below):
//
//   * parallel_map(n, fn) / parallel_run   -- task-level fan-out; results
//     land in index order.
//   * parallel_stream(ready, fn)           -- a growing set of keyed
//     units: an idle thread always runs the smallest ready key, and a
//     finished unit releases its successors. parallel_run is a stream
//     whose keys are all ready and release nothing.
//
// Units are whole tasks (a forward, a prepare, an evaluation); the
// kernels inside a unit run serially on its thread.
//
// Thread-count precedence: set_num_threads(n) > FP8Q_NUM_THREADS >
// std::thread::hardware_concurrency(). Any number of threads may dispatch
// at once: each drains its own stream, the pool's workers take units from
// every open stream, and each dispatcher counts as one of the
// num_threads() threads (docs/THREADING.md, "Concurrent dispatchers").
// Nested calls from inside a unit run serially inline (no pool re-entry,
// no deadlock). One exception rule: a throwing index or unit does not
// stop the others, and once all have run, the smallest failing index's or
// key's exception is rethrown on the calling thread, the same one at any
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace fp8q {

/// std::thread::hardware_concurrency(), clamped to >= 1. Cached.
[[nodiscard]] int hardware_threads();

/// The number of threads (pool workers + the dispatching threads) parallel
/// regions may use. Resolution order is the last set_num_threads() value,
/// else FP8Q_NUM_THREADS (read once, on first use), else
/// hardware_threads(). Always >= 1.
[[nodiscard]] int num_threads();

/// Overrides the thread count for all subsequent parallel regions.
/// `n <= 0` clears the override and restores the env-var/hardware default.
/// Workers read it before each unit they take, so surplus workers sleep
/// once it drops; missing ones are spawned at the next region.
void set_num_threads(int n);

/// True when the calling thread is already executing inside a parallel
/// region (pool worker, or the caller participating in its own region).
/// Such threads execute nested parallel calls serially inline.
[[nodiscard]] bool in_parallel_region();

/// Task-level fan-out: invokes fn(i) for i in [0, n) across the pool, as
/// one parallel_stream whose keys 0..n-1 are all ready and release
/// nothing. Scheduling is dynamic (an idle thread takes the smallest
/// unclaimed index, which load-balances heterogeneous tasks), but each
/// index is executed exactly once and completion of the call is a full
/// barrier. If indices throw, every other index still runs, and the
/// exception of the smallest failing index is rethrown.
void parallel_run(std::int64_t n, const std::function<void(std::int64_t)>& fn);

/// Runs fn(i) for i in [0, n) across the pool and collects the results in
/// INDEX order -- result[i] is always fn(i), regardless of which thread
/// finished first. The result type must be default-constructible and
/// movable.
template <class Fn>
[[nodiscard]] auto parallel_map(std::int64_t n, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::int64_t{}))>> {
  using R = std::decay_t<decltype(fn(std::int64_t{}))>;
  static_assert(!std::is_same_v<R, bool>,
                "parallel_map cannot return bool: std::vector<bool> packs bits, so "
                "concurrent out[i] writes race on shared words; return e.g. char or int");
  if (n < 0) n = 0;
  std::vector<R> out(static_cast<std::size_t>(n));
  parallel_run(n, [&out, &fn](std::int64_t i) { out[static_cast<std::size_t>(i)] = fn(i); });
  return out;
}

/// Keyed unit stream, the scheduler under every primitive here: runs
/// fn(key) once for every key in `ready` and for every key a finished
/// unit returns (the successors it releases), until no unit is ready or
/// running. An idle thread always takes the smallest ready key, so a
/// caller numbers its work in the order it wants it done and releases a
/// key once the unit's inputs exist. Keys must be distinct over the whole
/// stream. At one thread, and when called from inside a parallel region,
/// the units run inline on the calling thread in exact key order. A unit
/// that throws releases nothing; the stream still drains every other
/// runnable unit, then rethrows the exception of the smallest failing
/// key -- the same exception at any thread count when what a unit
/// releases does not depend on timing. Each unit is one `parallel/task`
/// trace span when tracing. A full barrier, like the other primitives.
void parallel_stream(std::vector<std::int64_t> ready,
                     const std::function<std::vector<std::int64_t>(std::int64_t)>& fn);

}  // namespace fp8q
