// Concurrency contract of the parallel runtime (docs/THREADING.md):
// coverage, key order, nesting, exception propagation, thread-count
// knobs, concurrent dispatchers.
#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
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

/// What unit `key` releases in a binary tree over [0, n): 2k + 1 and
/// 2k + 2, so a stream started at key 0 grows to all of [0, n).
std::vector<std::int64_t> tree_children(std::int64_t key, std::int64_t n) {
  std::vector<std::int64_t> next;
  for (std::int64_t child : {2 * key + 1, 2 * key + 2}) {
    if (child < n) next.push_back(child);
  }
  return next;
}

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
  // Alternate thread counts so every region follows a change: workers
  // spawned at a higher count sleep at a lower one, and those spawned
  // after earlier regions must take no unit twice and let none be lost.
  for (int round = 0; round < 50; ++round) {
    set_num_threads(2 + (round % 3) * 3);  // 2, 5, 8, 2, ...
    std::vector<std::atomic<int>> hits(128);
    parallel_run(128, [&](std::int64_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (std::int64_t i = 0; i < 128; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(Parallel, ConcurrentTopLevelRegionsShareThePool) {
  ThreadCountGuard guard;
  set_num_threads(4);
  // Two independent user threads each drive their own regions, open on
  // the pool at the same time; both must complete correctly.
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
  // A binary tree of releases (tree_children).
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
      return tree_children(key, kN);
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

TEST(Parallel, SleepingWorkersTakeNothing) {
  ThreadCountGuard guard;
  set_num_threads(8);
  parallel_run(64, [](std::int64_t) {});  // the pool now has 7 workers
  set_num_threads(2);
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  parallel_run(256, [&](std::int64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    std::lock_guard<std::mutex> lock(mutex);
    ran_on.insert(std::this_thread::get_id());
  });
  // The dispatcher and worker 0; the other six sleep.
  EXPECT_LE(ran_on.size(), 2u);
}

/// Polls `flag` until it is set or 10 s pass; returns its final value.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

TEST(ParallelStream, DispatchersDoNotWaitForEachOther) {
  ThreadCountGuard guard;
  set_num_threads(4);
  // Each stream's first unit waits for the other stream to start one: a
  // pool that ran one stream at a time would time out here.
  std::atomic<bool> started[2] = {false, false};
  bool saw_other[2] = {false, false};
  auto dispatch = [&](int self) {
    parallel_stream({0, 1, 2}, [&](std::int64_t key) {
      if (key == 0) {
        started[self].store(true);
        saw_other[self] = wait_for(started[1 - self]);
      }
      return std::vector<std::int64_t>{};
    });
  };
  std::thread a(dispatch, 0);
  std::thread b(dispatch, 1);
  a.join();
  b.join();
  EXPECT_TRUE(saw_other[0]);
  EXPECT_TRUE(saw_other[1]);
}

TEST(ParallelStream, MoreDispatchersThanThreadsAllFinish) {
  ThreadCountGuard guard;
  set_num_threads(3);
  // Six dispatchers, three threads: no worker has room while three or
  // more streams are open, so each dispatcher drains its own stream.
  constexpr int kDispatchers = 6;
  constexpr int kRounds = 20;
  constexpr std::int64_t kN = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kDispatchers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kRounds * kN);
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&hits, d] {
      for (int round = 0; round < kRounds; ++round) {
        parallel_stream({0}, [&](std::int64_t key) {
          hits[static_cast<size_t>(d)][static_cast<size_t>(round * kN + key)].fetch_add(1);
          return tree_children(key, kN);
        });
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();
  for (int d = 0; d < kDispatchers; ++d) {
    for (std::int64_t i = 0; i < kRounds * kN; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(d)][static_cast<size_t>(i)].load(), 1)
          << "dispatcher " << d << " unit " << i;
    }
  }
}

TEST(ParallelStream, ExceptionsStayInTheirStream) {
  ThreadCountGuard guard;
  set_num_threads(4);
  // The thrower's stream fails (keys 5 and 40) while the clean stream is
  // open: its first unit waits until the thrower has finished.
  std::atomic<bool> thrower_done{false};
  std::string message;
  std::thread thrower([&] {
    std::vector<std::int64_t> keys(64);
    std::iota(keys.begin(), keys.end(), std::int64_t{0});
    try {
      parallel_stream(keys, [](std::int64_t key) -> std::vector<std::int64_t> {
        if (key == 5 || key == 40) throw std::runtime_error("unit " + std::to_string(key));
        return {};
      });
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    thrower_done.store(true);
  });
  constexpr std::int64_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  bool overlapped = false;
  EXPECT_NO_THROW(parallel_stream({0}, [&](std::int64_t key) {
    if (key == 0) overlapped = wait_for(thrower_done);
    hits[static_cast<size_t>(key)].fetch_add(1);
    return tree_children(key, kN);
  }));
  thrower.join();
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(message, "unit 5");
  for (std::int64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

}  // namespace
}  // namespace fp8q
