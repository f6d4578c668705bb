// Parallel quantization runtime (see docs/THREADING.md for the contract).
//
// A lazily-initialized global thread pool drives three primitives, all
// scheduled by one key-ordered unit stream (each is documented below):
//
//   * parallel_for(begin, end, grain, fn)  -- data-parallel loops over a
//     deterministic static partition into contiguous chunks.
//   * parallel_map(n, fn) / parallel_run   -- task-level fan-out; results
//     land in index order.
//   * parallel_stream(ready, fn)           -- a growing set of keyed
//     units: an idle thread always runs the smallest ready key, and a
//     finished unit releases its successors. parallel_run is a stream
//     whose keys are all ready and release nothing.
//
// Thread-count precedence: set_num_threads(n) > FP8Q_NUM_THREADS >
// std::thread::hardware_concurrency(). Nested calls from inside a worker
// run serially inline (no pool re-entry, no deadlock). One exception
// rule: a throwing index or unit does not stop the others, and once all
// have run, the smallest failing index's or key's exception is rethrown
// on the calling thread, the same one at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace fp8q {

/// Parallelization grain for memory-bound elementwise kernels, in BYTES of
/// input touched per chunk. Pass `kParallelGrainBytes / sizeof(T)` as the
/// parallel_for grain so a chunk covers ~64 KiB regardless of element
/// width -- enough work to amortize the fork/join handshake, small enough
/// that short tensors still fan out. Kernels must not hard-code their own
/// thresholds (lint rule "parallel-grain", tools/lint/rules.cpp).
inline constexpr std::int64_t kParallelGrainBytes = 65536;

/// Parallelization grain for compute-bound kernels (matmul/linear/conv), in
/// FLOPs per chunk: the parallel_for grain is kParallelGrainFlops divided by
/// the per-iteration cost, so a chunk carries ~64k FLOPs no matter how the
/// loop is shaped.
inline constexpr std::int64_t kParallelGrainFlops = 65536;

/// Overflow-safe cost product for grain heuristics: a * b saturated to
/// `cap`. Chainable (capped_cost(capped_cost(a, b, cap), c, cap)) because a
/// saturated intermediate stays saturated. Any zero factor gives zero; the
/// caller clamps (grain heuristics use max(1, ...) on both cost and grain).
[[nodiscard]] constexpr std::int64_t capped_cost(std::int64_t a, std::int64_t b,
                                                std::int64_t cap) {
  if (a <= 0 || b <= 0) return 0;
  return a > cap / b ? cap : a * b;
}

/// std::thread::hardware_concurrency(), clamped to >= 1. Cached.
[[nodiscard]] int hardware_threads();

/// The number of threads (pool workers + the calling thread) parallel
/// regions may use. A thread bound to a ParallelArena (below) reports the
/// arena's budget; otherwise resolution order is the last
/// set_num_threads() value, else FP8Q_NUM_THREADS (read once, on first
/// use), else hardware_threads(). Always >= 1.
[[nodiscard]] int num_threads();

/// Overrides the thread count for all subsequent parallel regions.
/// `n <= 0` clears the override and restores the env-var/hardware default.
/// The pool resizes lazily at the next parallel region. Not safe to call
/// concurrently with a running parallel region.
void set_num_threads(int n);

/// True when the calling thread is already executing inside a parallel
/// region (pool worker, or the caller participating in its own region).
/// Such threads execute nested parallel calls serially inline.
[[nodiscard]] bool in_parallel_region();

/// A private, fixed-budget slice of the parallel runtime
/// (docs/THREADING.md, "Nested-parallelism budget"). While a thread is
/// bound to an arena (ScopedArenaBinding), num_threads() reports the
/// arena's budget and parallel regions dispatched from that thread run on
/// the arena's own workers instead of the shared global pool -- so
/// concurrent top-level dispatchers (fp8qd's executor workers) neither
/// serialize on the global pool's one-region-at-a-time lock nor
/// oversubscribe the machine: N executors with budget max(1, threads/N)
/// each use their slice. A budget-1 arena owns no threads at all; every
/// region runs inline on the binding thread. The deterministic partition
/// contract is unchanged: parallel_for under an arena chunks exactly as
/// it would with num_threads() == budget.
class ParallelArena {
 public:
  /// Budget counts the binding thread itself: budget 1 = serial, budget k
  /// = the binding thread plus k-1 arena workers (spawned lazily at the
  /// first parallel region). Clamped to >= 1.
  explicit ParallelArena(int budget);
  ~ParallelArena();

  ParallelArena(const ParallelArena&) = delete;
  ParallelArena& operator=(const ParallelArena&) = delete;

  [[nodiscard]] int budget() const { return budget_; }

 private:
  friend void arena_run_region(ParallelArena& arena, const std::function<void()>& drain);
  int budget_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The calling thread's bound arena, or nullptr (global pool).
[[nodiscard]] ParallelArena* current_arena();

/// RAII arena binding: parallel regions (and num_threads()) on this
/// thread use `arena` for the scope's lifetime; nullptr pins the global
/// pool. Bindings nest; the previous binding is restored on destruction.
/// The arena must outlive the binding, and at most one thread may be
/// bound to a given arena at a time (its pool runs one region at a time).
class ScopedArenaBinding {
 public:
  explicit ScopedArenaBinding(ParallelArena* arena);
  ~ScopedArenaBinding();

  ScopedArenaBinding(const ScopedArenaBinding&) = delete;
  ScopedArenaBinding& operator=(const ScopedArenaBinding&) = delete;

 private:
  ParallelArena* prev_;
};

/// Splits [begin, end) into min(num_threads(), ceil(n / grain)) near-equal
/// contiguous chunks (grain < 1 behaves as 1) and invokes
/// fn(chunk_begin, chunk_end) for each chunk, concurrently. Empty and
/// single-chunk ranges run inline on the calling thread. The chunk
/// partition is a pure function of (begin, end, grain, num_threads()):
/// per-index writes are deterministic at any thread count; per-chunk
/// accumulations merged in chunk order are deterministic for a given
/// num_threads() but may differ across thread counts as the chunk
/// boundaries (and thus floating-point summation order) move.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

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
