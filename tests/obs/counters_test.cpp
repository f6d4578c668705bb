// Quantization-event counter semantics (src/obs/counters.h): totals must
// be independent of thread count, cost nothing when disabled, and survive
// the exit of the threads that counted them.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/parallel.h"
#include "fp8/cast_fast.h"
#include "fp8/int8.h"
#include "obs/counters.h"

namespace fp8q {
namespace {

struct ObsGuard {
  ~ObsGuard() {
    set_num_threads(0);
    set_counters_enabled(false);
    counters_reset();
  }
};

/// Input with a known event census: `sat` saturating values, `flush`
/// flush-to-zero values, the rest ordinary.
std::vector<float> census_input(std::size_t n, std::size_t sat, std::size_t flush) {
  std::vector<float> in(n, 1.0f);
  for (std::size_t i = 0; i < sat; ++i) in[i] = 1000.0f;  // > E4M3 max (448)
  for (std::size_t i = 0; i < flush; ++i) in[sat + i] = 1e-12f;
  return in;
}

TEST(Counters, FastPathTotalsIndependentOfThreadCount) {
  ObsGuard guard;
  set_counters_enabled(true);
  const std::size_t n = 1 << 17;
  const std::size_t sat = 1000;
  const std::size_t flush = 2000;
  const auto in = census_input(n, sat, flush);
  std::vector<float> out(n);

  for (int threads : {1, 8}) {
    set_num_threads(threads);
    const CounterSnapshot before = counters_snapshot();
    fp8_quantize_scaled_fast(in, out, fast_cast_spec(Fp8Kind::E4M3), 1.0f);
    const CounterSnapshot delta = counters_snapshot().since(before);
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kQuantized), n) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kSaturated), sat) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kFlushedToZero), flush) << threads;
    EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kNanProduced), 0u) << threads;
  }
}

TEST(Counters, Int8SaturationAndFlush) {
  ObsGuard guard;
  set_counters_enabled(true);
  const Int8Params p = int8_symmetric_params(1.0f);  // scale = 1/127
  const std::vector<float> in = {2.0f, -3.0f, 1e-6f, 0.5f, 0.0f};
  std::vector<float> out(in.size());

  const CounterSnapshot before = counters_snapshot();
  int8_quantize(in, out, p);
  const CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kQuantized), in.size());
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kSaturated), 2u);
  EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kFlushedToZero), 1u);
}

TEST(Counters, DisabledCountsNothing) {
  ObsGuard guard;
  set_counters_enabled(false);
  counters_reset();
  const auto in = census_input(1 << 15, 100, 100);
  std::vector<float> out(in.size());
  fp8_quantize_scaled_fast(in, out, fast_cast_spec(Fp8Kind::E4M3), 1.0f);
  int8_quantize(in, out, int8_symmetric_params(1.0f));
  EXPECT_FALSE(counters_snapshot().any());
}

TEST(Counters, ExitedThreadsFoldIntoRetiredTotals) {
  ObsGuard guard;
  set_counters_enabled(true);
  counters_reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [] { counter_add(ObsFormat::kOther, ObsEvent::kQuantized, 10); });
  }
  for (auto& t : threads) t.join();
  // All four threads are gone; their adds live on in the root domain they
  // shared, which no thread owns.
  EXPECT_EQ(counters_snapshot().get(ObsFormat::kOther, ObsEvent::kQuantized), 40u);
}

TEST(Counters, ResetZeroesEverything) {
  ObsGuard guard;
  set_counters_enabled(true);
  counter_add(ObsFormat::kE5M2, ObsEvent::kSaturated, 7);
  EXPECT_TRUE(counters_snapshot().any());
  counters_reset();
  EXPECT_FALSE(counters_snapshot().any());
}

}  // namespace
}  // namespace fp8q
