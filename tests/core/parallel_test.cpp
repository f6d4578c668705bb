// Concurrency contract of the parallel runtime (docs/THREADING.md):
// coverage, key order, nesting, exception propagation, thread-count
// knobs, arenas.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fp8q {
namespace {

/// Restores the default thread count when a test body returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_num_threads(0); }
};

TEST(ParallelRun, NonPositiveCountsNeverInvoke) {
  ThreadCountGuard guard;
  set_num_threads(4);
  int calls = 0;
  parallel_run(0, [&](std::int64_t) { ++calls; });
  parallel_run(-3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelRun, PropagatesException) {
  ThreadCountGuard guard;
  set_num_threads(4);
  EXPECT_THROW(parallel_run(64,
                            [](std::int64_t i) {
                              if (i == 13) throw std::invalid_argument("task 13");
                            }),
               std::invalid_argument);
  // The pool survives a throwing region and runs the next one normally.
  std::atomic<std::int64_t> sum{0};
  parallel_run(100, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelRun, RunsEveryIndexAndRethrowsTheSmallestFailing) {
  ThreadCountGuard guard;
  // Indices 7 and 40 throw. Index 7 sleeps first, so with threads free 40
  // fails first in time. Every other index still runs, and index 7's
  // exception is the one rethrown, at every thread count.
  for (int threads : {1, 3, 8}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(64);
    std::string message;
    try {
      parallel_run(64, [&](std::int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
        if (i == 7) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (i == 7 || i == 40) throw std::runtime_error("index " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "index 7") << "threads=" << threads;
    for (std::int64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "threads=" << threads << " index " << i;
    }
  }
}

TEST(ParallelMap, ResultsAreInIndexOrder) {
  ThreadCountGuard guard;
  set_num_threads(8);
  const auto out = parallel_map(257, [](std::int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::int64_t i = 0; i < 257; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
}

TEST(ParallelMap, NegativeAndZeroCountsAreEmpty) {
  EXPECT_TRUE(parallel_map(0, [](std::int64_t i) { return i; }).empty());
  EXPECT_TRUE(parallel_map(-3, [](std::int64_t i) { return i; }).empty());
}

TEST(Parallel, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  set_num_threads(4);
  EXPECT_FALSE(in_parallel_region());
  std::vector<std::atomic<int>> hits(64 * 64);
  parallel_run(64, [&](std::int64_t o) {
    EXPECT_TRUE(in_parallel_region());
    parallel_run(64, [&](std::int64_t i) { hits[static_cast<size_t>(o * 64 + i)].fetch_add(1); });
  });
  EXPECT_FALSE(in_parallel_region());
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Parallel, SetNumThreadsOverridesAndClears) {
  ThreadCountGuard guard;
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);  // back to FP8Q_NUM_THREADS / hardware default
  EXPECT_GE(num_threads(), 1);
  EXPECT_GE(hardware_threads(), 1);
}

TEST(Parallel, SingleThreadRunsEverythingOnCaller) {
  ThreadCountGuard guard;
  set_num_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  parallel_run(32, [&](std::int64_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(Parallel, ResizeAfterPriorJobsDoesNotCorruptCompletion) {
  ThreadCountGuard guard;
  // Regression: job_id_ persists across pool resizes, so workers spawned
  // after earlier jobs must not treat those published job ids as pending
  // work (a spurious wake decremented active_ for a job the worker never
  // joined, letting run() return while another worker still drained it).
  // Alternate thread counts so every run() follows a resize.
  for (int round = 0; round < 50; ++round) {
    set_num_threads(2 + (round % 3) * 3);  // 2, 5, 8, 2, ...
    std::vector<std::atomic<int>> hits(128);
    parallel_run(128, [&](std::int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (std::int64_t i = 0; i < 128; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(Parallel, ConcurrentTopLevelRegionsSerializeSafely) {
  ThreadCountGuard guard;
  set_num_threads(4);
  // Two independent user threads each drive their own region; the pool
  // serializes them internally and both must complete correctly.
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
  std::thread t1([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_run(1000, [&](std::int64_t) { a.fetch_add(1); });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 20; ++r) {
      parallel_run(100, [&](std::int64_t) { b.fetch_add(1); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 20 * 1000);
  EXPECT_EQ(b.load(), 20 * 100);
}

TEST(ParallelStream, OneThreadRunsUnitsInKeyOrderIncludingReleasedOnes) {
  ThreadCountGuard guard;
  set_num_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  parallel_stream({40, 10, 30}, [&](std::int64_t key) -> std::vector<std::int64_t> {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(key);
    if (key == 10) return {35, 20};  // one released key below a ready one
    if (key == 20) return {25};
    return {};
  });
  EXPECT_EQ(order, (std::vector<std::int64_t>{10, 20, 25, 30, 35, 40}));
}

TEST(ParallelStream, EveryUnitRunsExactlyOnceAtAnyThreadCount) {
  ThreadCountGuard guard;
  // A binary tree of releases: unit k releases 2k + 1 and 2k + 2, so the
  // stream grows from one key to all of [0, kN).
  constexpr std::int64_t kN = 4000;
  for (int threads : {2, 4, 8}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> hits(kN);
    std::mutex mutex;
    std::set<std::thread::id> ran_on;
    parallel_stream({0}, [&](std::int64_t key) {
      hits[static_cast<size_t>(key)].fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mutex);
        ran_on.insert(std::this_thread::get_id());
      }
      std::vector<std::int64_t> next;
      for (std::int64_t child : {2 * key + 1, 2 * key + 2}) {
        if (child < kN) next.push_back(child);
      }
      return next;
    });
    for (std::int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "threads=" << threads << " key " << i;
    }
    EXPECT_LE(ran_on.size(), static_cast<size_t>(threads));
  }
}

TEST(ParallelStream, NestedCallsRunInlineInKeyOrder) {
  ThreadCountGuard guard;
  set_num_threads(4);
  std::atomic<int> failures{0};
  parallel_run(8, [&](std::int64_t) {
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::int64_t> order;
    parallel_stream({3, 1, 2}, [&](std::int64_t key) -> std::vector<std::int64_t> {
      if (std::this_thread::get_id() != self) failures.fetch_add(1);
      order.push_back(key);
      return key == 1 ? std::vector<std::int64_t>{0} : std::vector<std::int64_t>{};
    });
    if (order != std::vector<std::int64_t>{1, 0, 2, 3}) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelStream, RethrowsTheSmallestFailingKeyWithoutHanging) {
  ThreadCountGuard guard;
  // Keys 0..63 are ready. Unit 30 throws before releasing 100..103, so
  // those never run; unit 10 releases 70, which throws; unit 50 throws.
  // Unit 30 fails last in time when threads are free, yet the stream
  // drains the rest and rethrows key 30's exception.
  for (int threads : {1, 3, 8}) {
    set_num_threads(threads);
    std::vector<std::int64_t> keys;
    for (std::int64_t k = 63; k >= 0; --k) keys.push_back(k);
    std::vector<std::atomic<int>> hits(104);
    std::string message;
    try {
      parallel_stream(keys, [&](std::int64_t key) -> std::vector<std::int64_t> {
        hits[static_cast<size_t>(key)].fetch_add(1);
        if (key == 30) std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (key == 30 || key == 50 || key == 70) {
          throw std::runtime_error("unit " + std::to_string(key));
        }
        if (key == 10) return {70};
        return {};
      });
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "unit 30") << "threads=" << threads;
    for (std::int64_t k = 0; k < 64; ++k) {
      EXPECT_EQ(hits[static_cast<size_t>(k)].load(), 1) << "threads=" << threads << " key " << k;
    }
    EXPECT_EQ(hits[70].load(), 1) << "threads=" << threads;
    for (std::int64_t k = 100; k < 104; ++k) EXPECT_EQ(hits[static_cast<size_t>(k)].load(), 0);
  }
  // The pool survives and runs the next stream.
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_stream({0, 1, 2}, [&](std::int64_t) {
    calls.fetch_add(1);
    return std::vector<std::int64_t>{};
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelStream, ThrowingSoleUnitWithSuccessorsEndsTheStream) {
  ThreadCountGuard guard;
  set_num_threads(4);
  // The only running unit throws while other threads wait for it to
  // release work: they must see the stream end, not wait forever.
  EXPECT_THROW(parallel_stream({0},
                               [](std::int64_t) -> std::vector<std::int64_t> {
                                 throw std::invalid_argument("head");
                               }),
               std::invalid_argument);
}

TEST(ParallelArena, BudgetGovernsNumThreadsWhileBound) {
  ThreadCountGuard guard;
  set_num_threads(8);
  ParallelArena arena(3);
  EXPECT_EQ(arena.budget(), 3);
  EXPECT_EQ(current_arena(), nullptr);
  {
    ScopedArenaBinding binding(&arena);
    EXPECT_EQ(current_arena(), &arena);
    EXPECT_EQ(num_threads(), 3);
  }
  EXPECT_EQ(current_arena(), nullptr);
  EXPECT_EQ(num_threads(), 8);
}

TEST(ParallelArena, BudgetOneRunsEverythingInlineOnTheBindingThread) {
  ThreadCountGuard guard;
  set_num_threads(8);
  ParallelArena arena(1);
  ScopedArenaBinding binding(&arena);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  parallel_run(16, [&](std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 16);
}

TEST(ParallelArena, RegionsRunOnTheArenaNotTheGlobalPool) {
  ThreadCountGuard guard;
  set_num_threads(8);
  ParallelArena arena(4);
  ScopedArenaBinding binding(&arena);
  constexpr std::int64_t kN = 4003;
  std::vector<std::atomic<int>> hits(kN);
  std::mutex mutex;
  std::set<std::thread::id> workers;
  parallel_run(kN, [&](std::int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(std::this_thread::get_id());
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  // Never more threads than the arena budget, whatever the global count.
  EXPECT_LE(workers.size(), 4u);
}

TEST(ParallelArena, ConcurrentArenasDoNotSerializeOrInterfere) {
  // Two threads, each bound to its own arena, each running regions: both
  // must complete with full coverage (the fp8qd executor-pool shape; on
  // the global pool these would serialize on the region lock).
  ThreadCountGuard guard;
  set_num_threads(4);
  constexpr std::int64_t kN = 2048;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  auto body = [kN](ParallelArena& arena, std::vector<std::atomic<int>>& hits) {
    ScopedArenaBinding binding(&arena);
    for (int round = 0; round < 8; ++round) {
      parallel_run(kN, [&](std::int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    }
  };
  ParallelArena arena_a(2), arena_b(2);
  std::thread ta([&] { body(arena_a, hits_a); });
  std::thread tb([&] { body(arena_b, hits_b); });
  ta.join();
  tb.join();
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[static_cast<size_t>(i)].load(), 8) << "arena A index " << i;
    ASSERT_EQ(hits_b[static_cast<size_t>(i)].load(), 8) << "arena B index " << i;
  }
}

TEST(ParallelArena, NestedRegionsUnderAnArenaRunInline) {
  ThreadCountGuard guard;
  set_num_threads(8);
  ParallelArena arena(4);
  ScopedArenaBinding binding(&arena);
  std::atomic<int> outer{0}, inner{0};
  parallel_run(4, [&](std::int64_t) {
    outer.fetch_add(1);
    parallel_run(4, [&](std::int64_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.load(), 4);
  EXPECT_EQ(inner.load(), 16);
}

TEST(ParallelArena, ExceptionsPropagateFromArenaWorkers) {
  ThreadCountGuard guard;
  set_num_threads(8);
  ParallelArena arena(4);
  ScopedArenaBinding binding(&arena);
  EXPECT_THROW(
      parallel_run(64,
                   [](std::int64_t i) {
                     if (i == 13) throw std::runtime_error("arena boom");
                   }),
      std::runtime_error);
  // The arena pool survives the exception and runs the next region.
  std::atomic<int> calls{0};
  parallel_run(8, [&](std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

}  // namespace
}  // namespace fp8q
