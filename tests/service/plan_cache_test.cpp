// PlanCache (service/plan_cache.h): one build per key however many callers
// ask at once, failed builds reach every waiter and stay uncached, LRU
// eviction by bytes leaves callers' plans alive, and the protocol is part
// of the key. Builds are counted through a wrapped Workload::build.
//
// Tests live outside src/, so std::thread and raw sleeps are fair game
// here (the linted library keeps to core/parallel and obs_now_ns).
#include "service/plan_cache.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "workloads/registry.h"

namespace fp8q::service {
namespace {

/// `name` from the suite, each build counted in `builds` and then
/// preceded by `before`.
Workload counted_workload(const std::string& name, std::atomic<int>& builds,
                          std::function<void()> before = nullptr) {
  Workload w = find_workload(build_suite(), name);
  w.build = [inner = w.build, &builds, before = std::move(before)] {
    builds.fetch_add(1);
    if (before) before();
    return inner();
  };
  return w;
}

/// Blocks until `hits` get()s have found the entry being built, so every
/// caller provably waits on one build. Gives up after 30 s, so a cache that
/// stops counting hits fails the test instead of hanging it.
void wait_for_hits(const PlanCache& cache, std::uint64_t hits) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache.stats().hits < hits && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

constexpr int kCallers = 4;

TEST(PlanCache, ConcurrentGetsOfOneKeyBuildOnceAndShareThePlan) {
  PlanCache cache;
  std::atomic<int> builds{0};
  const Workload w = counted_workload("nlp/distil-mlp-0", builds,
                                     [&cache] { wait_for_hits(cache, kCallers - 1); });

  std::vector<std::shared_ptr<const EvalPlan>> plans(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back(
        [&, i] { plans[static_cast<std::size_t>(i)] = cache.get(w, smoke_protocol()); });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(plans[0], nullptr);
  for (const auto& plan : plans) EXPECT_EQ(plan, plans[0]);
  EXPECT_EQ(plans[0]->workload_name, "nlp/distil-mlp-0");
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCallers - 1));
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PlanCache, FailedBuildReachesEveryWaiterAndIsNotCached) {
  PlanCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> fail{true};
  const Workload w = counted_workload("nlp/distil-mlp-0", builds, [&cache, &fail] {
    if (fail.load()) {
      wait_for_hits(cache, kCallers - 1);
      throw std::runtime_error("build failed on purpose");
    }
  });

  std::atomic<int> thrown{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      try {
        (void)cache.get(w, smoke_protocol());
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "build failed on purpose");
        thrown.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(thrown.load(), kCallers);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);

  // Nothing was cached, so the next get builds again.
  fail = false;
  const std::shared_ptr<const EvalPlan> plan = cache.get(w, smoke_protocol());
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCache, EvictsTheLeastRecentlyUsedPlanAndKeepsHeldPlansAlive) {
  std::atomic<int> builds_a{0};
  std::atomic<int> builds_b{0};
  const Workload a = counted_workload("nlp/distil-mlp-0", builds_a);
  const Workload b = counted_workload("dlrm-ish", builds_b);

  // Measure both plans, then size a cache that holds either but not both.
  std::size_t bytes_a = 0;
  std::size_t bytes_b = 0;
  {
    PlanCache probe;
    (void)probe.get(a, smoke_protocol());
    bytes_a = probe.stats().bytes;
    (void)probe.get(b, smoke_protocol());
    bytes_b = probe.stats().bytes - bytes_a;
  }
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_b, 0u);
  PlanCache cache(std::max(bytes_a, bytes_b));
  builds_a = 0;
  builds_b = 0;

  const std::shared_ptr<const EvalPlan> first_a = cache.get(a, smoke_protocol());
  const std::shared_ptr<const EvalPlan> first_b = cache.get(b, smoke_protocol());  // evicts A
  const std::shared_ptr<const EvalPlan> second_a = cache.get(a, smoke_protocol());  // evicts B
  EXPECT_EQ(builds_a.load(), 2);
  EXPECT_EQ(builds_b.load(), 1);
  EXPECT_NE(first_a, second_a);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, bytes_a);

  // The evicted plan is still whole, and bit-identical to its rebuild.
  EXPECT_EQ(first_a->fp32_score, second_a->fp32_score);
  ASSERT_EQ(first_a->batches.size(), second_a->batches.size());
  for (std::size_t i = 0; i < first_a->batches.size(); ++i) {
    const auto old_out = first_a->batches[i].clean_fp32_out.flat();
    const auto new_out = second_a->batches[i].clean_fp32_out.flat();
    ASSERT_EQ(old_out.size(), new_out.size());
    for (std::size_t j = 0; j < old_out.size(); ++j) ASSERT_EQ(old_out[j], new_out[j]);
  }
  EXPECT_EQ(first_b->workload_name, "dlrm-ish");
}

TEST(PlanCache, TheProtocolIsPartOfTheKey) {
  PlanCache cache;
  std::atomic<int> builds{0};
  const Workload w = counted_workload("nlp/distil-mlp-0", builds);

  const std::shared_ptr<const EvalPlan> smoke = cache.get(w, smoke_protocol());
  const std::shared_ptr<const EvalPlan> full = cache.get(w, EvalProtocol{});
  EXPECT_EQ(builds.load(), 2);
  EXPECT_NE(smoke, full);
  EXPECT_EQ(smoke->batches.size(), 2u);
  EXPECT_EQ(full->batches.size(), static_cast<std::size_t>(EvalProtocol{}.eval_batches));

  // Each key is then served from the cache.
  EXPECT_EQ(cache.get(w, smoke_protocol()), smoke);
  EXPECT_EQ(cache.get(w, EvalProtocol{}), full);
  EXPECT_EQ(builds.load(), 2);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

}  // namespace
}  // namespace fp8q::service
