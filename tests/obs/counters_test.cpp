// Quantization-event counter semantics (src/obs/counters.h): totals must
// be independent of thread count, cost nothing when disabled, and survive
// the exit of the threads that counted them.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "fp8/cast.h"
#include "fp8/cast_fast.h"
#include "fp8/convert.h"
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
/// flush-to-zero values, the rest ordinary. Large enough to cross the fast
/// path's 16384-element chunk grain several times.
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

TEST(Counters, SlowPathMatchesFastPathCensus) {
  ObsGuard guard;
  set_counters_enabled(true);
  const std::size_t n = 1 << 15;
  const auto in = census_input(n, 300, 700);
  std::vector<float> out(n);

  const CounterSnapshot before = counters_snapshot();
  fp8_quantize_scaled(in, out, format_spec(Fp8Kind::E4M3), 1.0f);
  const CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kQuantized), n);
  EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kSaturated), 300u);
  EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kFlushedToZero), 700u);
}

TEST(Counters, InfinityNanPolicyProducesInfAndNanEvents) {
  ObsGuard guard;
  set_counters_enabled(true);
  CastOptions opts;
  opts.overflow = OverflowPolicy::kInfinityNan;
  const std::vector<float> in = {1e6f, std::nanf(""), 1.0f};
  std::vector<float> out(in.size());

  // E5M2 has an Inf encoding: overflow becomes Inf.
  CounterSnapshot before = counters_snapshot();
  fp8_quantize(in, out, format_spec(Fp8Kind::E5M2), opts);
  CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kE5M2, ObsEvent::kInfProduced), 1u);
  EXPECT_EQ(delta.get(ObsFormat::kE5M2, ObsEvent::kNanProduced), 0u);

  // E4M3 has no Inf: overflow becomes NaN. NaN pass-through is no event.
  before = counters_snapshot();
  fp8_quantize(in, out, format_spec(Fp8Kind::E4M3), opts);
  delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kNanProduced), 1u);
  EXPECT_EQ(delta.get(ObsFormat::kE4M3, ObsEvent::kInfProduced), 0u);
}

TEST(Counters, ConvertAttributesEventsToTargetFormat) {
  ObsGuard guard;
  set_counters_enabled(true);
  // E4M3's max (448) saturates when narrowed to E3M4 (max 30).
  const std::uint8_t big = fp8_encode(448.0f, format_spec(Fp8Kind::E4M3));
  const std::vector<std::uint8_t> in(10, big);
  std::vector<std::uint8_t> out(in.size());

  const CounterSnapshot before = counters_snapshot();
  fp8_convert(in, out, format_spec(Fp8Kind::E4M3), format_spec(Fp8Kind::E3M4));
  const CounterSnapshot delta = counters_snapshot().since(before);
  EXPECT_EQ(delta.get(ObsFormat::kE3M4, ObsEvent::kQuantized), in.size());
  EXPECT_EQ(delta.get(ObsFormat::kE3M4, ObsEvent::kSaturated), in.size());
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
  fp8_quantize_scaled(in, out, format_spec(Fp8Kind::E3M4), 1.0f);
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
