// Scoped observation domains (obs/domain.h): the routing contract.
//
// While a thread is bound to a CounterDomain, every obs write primitive
// lands in the domain and every snapshot reads the domain's view; the
// root domain unbound threads share is untouched until fold_into_global()
// moves the tallies over. The suite pins: isolation from the root,
// isolation BETWEEN domains (the fp8qd concurrent-jobs property), nesting,
// the conservation law (sum over domains + root is invariant under
// folds), propagation across parallel regions (concurrent dispatchers
// included), and the unbound fallback.
#include "obs/domain.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/memory.h"

namespace fp8q {
namespace {

/// One magnitude merged the way the casts record: a LocalHistogram folded
/// with hist_merge.
void merge_one(ObsFormat fmt, double v) {
  LocalHistogram local;
  local.record(v);
  hist_merge(fmt, local);
}

/// Fresh root (process-global) state; counters on, histograms on.
void reset_globals() {
  set_counters_enabled(true);
  set_histograms_enabled(true);
  counters_reset();
  histograms_reset();
  alloc_counters_reset();
}

TEST(CounterDomain, BoundThreadRoutesWritesAndReadsToTheDomain) {
  reset_globals();
  const CounterSnapshot root_before = counters_snapshot();

  CounterDomain domain;
  {
    ScopedCounterDomain scope(&domain);
    counter_add(ObsFormat::kE4M3, ObsEvent::kQuantized, 40);
    counter_add(ObsFormat::kE4M3, ObsEvent::kSaturated, 2);
    alloc_counter_add(512);
    merge_one(ObsFormat::kE4M3, 1.5);

    // The bound thread's snapshots ARE the domain's view.
    EXPECT_EQ(counters_snapshot().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 40u);
    EXPECT_EQ(alloc_counters_snapshot().bytes, 512u);
    EXPECT_EQ(alloc_counters_snapshot().allocs, 1u);
    EXPECT_EQ(histogram_snapshot(ObsFormat::kE4M3).total, 1u);
  }

  // Unbound again: the root never saw any of it.
  EXPECT_TRUE(counters_snapshot() == root_before);
  EXPECT_EQ(alloc_counters_snapshot().bytes, 0u);
  EXPECT_EQ(histogram_snapshot(ObsFormat::kE4M3).total, 0u);
  // The domain still holds the tallies.
  EXPECT_EQ(domain.counters().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 40u);
  EXPECT_EQ(domain.alloc_counters().bytes, 512u);
  EXPECT_EQ(domain.histogram(ObsFormat::kE4M3).total, 1u);
}

TEST(CounterDomain, ConcurrentDomainsIsolatePerfectly) {
  reset_globals();
  // N threads, each bound to its own domain, each counting its own
  // signature amount -- the fp8qd executor-pool shape. Every domain must
  // end with exactly its own tally, regardless of interleaving.
  constexpr int kThreads = 8;
  std::vector<CounterDomain> domains(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&domains, t] {
      ScopedCounterDomain scope(&domains[static_cast<std::size_t>(t)]);
      for (int i = 0; i < 1000; ++i) {
        counter_add(ObsFormat::kE5M2, ObsEvent::kQuantized, static_cast<std::uint64_t>(t) + 1);
        merge_one(ObsFormat::kE5M2, static_cast<double>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(domains[static_cast<std::size_t>(t)].counters().get(ObsFormat::kE5M2,
                                                                  ObsEvent::kQuantized),
              1000u * (static_cast<std::uint64_t>(t) + 1));
    const HistogramSnapshot h =
        domains[static_cast<std::size_t>(t)].histogram(ObsFormat::kE5M2);
    EXPECT_EQ(h.total, 1000u);
    EXPECT_EQ(h.max_value, static_cast<double>(t));
  }
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(CounterDomain, FoldMovesTalliesIntoGlobalsExactlyOnce) {
  reset_globals();
  CounterDomain domain;
  {
    ScopedCounterDomain scope(&domain);
    counter_add(ObsFormat::kE3M4, ObsEvent::kFlushedToZero, 7);
    alloc_counter_add(64);
    merge_one(ObsFormat::kE3M4, 0.25);
  }
  domain.fold_into_global();

  // Conservation: the fold moved every tally into the root...
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kE3M4, ObsEvent::kFlushedToZero), 7u);
  EXPECT_EQ(alloc_counters_snapshot().bytes, 64u);
  EXPECT_EQ(alloc_counters_snapshot().allocs, 1u);
  EXPECT_EQ(histogram_snapshot(ObsFormat::kE3M4).total, 1u);
  // ...and left the domain empty, so a second fold adds nothing.
  EXPECT_FALSE(domain.counters().any());
  domain.fold_into_global();
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kE3M4, ObsEvent::kFlushedToZero), 7u);
}

TEST(CounterDomain, NestedDomainsFoldIntoTheEnclosingDomain) {
  reset_globals();
  CounterDomain outer;
  {
    ScopedCounterDomain outer_scope(&outer);
    counter_add(ObsFormat::kE4M3, ObsEvent::kQuantized, 10);
    CounterDomain inner;
    {
      ScopedCounterDomain inner_scope(&inner);
      counter_add(ObsFormat::kE4M3, ObsEvent::kQuantized, 5);
    }
    // Folding while the OUTER binding is live lands in outer, not the
    // root -- the nesting rule run_job_oneshot relies on when an
    // embedder calls it under a domain of its own.
    inner.fold_into_global();
    EXPECT_EQ(counters_snapshot().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 15u);
  }
  EXPECT_EQ(outer.counters().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 15u);
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(CounterDomain, ResetRoutesToTheDomainAndSparesGlobals) {
  reset_globals();
  counter_add(ObsFormat::kInt8, ObsEvent::kQuantized, 99);  // root
  CounterDomain domain;
  {
    ScopedCounterDomain scope(&domain);
    counter_add(ObsFormat::kInt8, ObsEvent::kQuantized, 3);
    counters_reset();
    EXPECT_FALSE(counters_snapshot().any());
  }
  EXPECT_FALSE(domain.counters().any());
  // The root tally survived the bound thread's reset.
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kInt8, ObsEvent::kQuantized), 99u);
  counters_reset();
}

/// 64 pool tasks over 4 threads, each adding one counter event, one
/// histogram value and one allocation.
void record_from_the_pool() {
  set_num_threads(4);
  parallel_run(64, [](std::int64_t) {
    counter_add(ObsFormat::kE4M3, ObsEvent::kQuantized, 1);
    merge_one(ObsFormat::kE4M3, 2.0);
    alloc_counter_add(8);
  });
  set_num_threads(0);
}

TEST(CounterDomain, ParallelRegionsInheritTheDispatchersDomain) {
  reset_globals();
  CounterDomain domain;
  {
    ScopedCounterDomain scope(&domain);
    // Pool workers must adopt the dispatcher's binding: every per-task
    // write lands in the domain no matter which thread ran the task.
    record_from_the_pool();
  }
  EXPECT_EQ(domain.counters().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 64u);
  EXPECT_EQ(domain.histogram(ObsFormat::kE4M3).total, 64u);
  EXPECT_EQ(domain.alloc_counters().allocs, 64u);
  EXPECT_EQ(domain.alloc_counters().bytes, 64u * 8u);
  EXPECT_FALSE(counters_snapshot().any());
  EXPECT_FALSE(histogram_snapshot(ObsFormat::kE4M3).any());
  EXPECT_EQ(alloc_counters_snapshot().allocs, 0u);

  // Two dispatchers fanning out at once, each bound to its own domain: the
  // pool's workers take units of both streams, and each unit's writes land
  // in its own dispatcher's domain.
  set_num_threads(4);
  CounterDomain first;
  CounterDomain second;
  std::atomic<int> arrived{0};
  const auto fan_out = [&arrived](CounterDomain* bound, std::uint64_t n) {
    ScopedCounterDomain scope(bound);
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    for (int round = 0; round < 20; ++round) {
      parallel_run(64, [n](std::int64_t) { counter_add(ObsFormat::kE5M2, ObsEvent::kQuantized, n); });
    }
  };
  std::thread a(fan_out, &first, std::uint64_t{1});
  std::thread b(fan_out, &second, std::uint64_t{2});
  a.join();
  b.join();
  set_num_threads(0);
  EXPECT_EQ(first.counters().get(ObsFormat::kE5M2, ObsEvent::kQuantized), 20u * 64u);
  EXPECT_EQ(second.counters().get(ObsFormat::kE5M2, ObsEvent::kQuantized), 2u * 20u * 64u);
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(CounterDomain, UnboundParallelRegionsShareTheRoot) {
  reset_globals();
  // No domain bound anywhere: every pool thread writes to the one root.
  record_from_the_pool();
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kE4M3, ObsEvent::kQuantized), 64u);
  EXPECT_EQ(histogram_snapshot(ObsFormat::kE4M3).total, 64u);
  EXPECT_EQ(alloc_counters_snapshot().allocs, 64u);
  EXPECT_EQ(alloc_counters_snapshot().bytes, 64u * 8u);
  reset_globals();
}

TEST(CounterDomain, BindingNullptrPinsGlobalRouting) {
  reset_globals();
  CounterDomain domain;
  {
    ScopedCounterDomain scope(&domain);
    {
      ScopedCounterDomain opt_out(nullptr);
      counter_add(ObsFormat::kE5M2, ObsEvent::kQuantized, 4);
    }
    counter_add(ObsFormat::kE5M2, ObsEvent::kSaturated, 1);
  }
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kE5M2, ObsEvent::kQuantized), 4u);
  EXPECT_EQ(domain.counters().get(ObsFormat::kE5M2, ObsEvent::kSaturated), 1u);
  counters_reset();
}

}  // namespace
}  // namespace fp8q
