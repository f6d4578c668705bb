// Log-bucketed histograms (src/obs/histogram.h): bucket math, nearest-rank
// quantiles, merging, and the determinism contract -- merged cast_mag
// snapshots must be bitwise-identical at every thread count. This binary is
// registered twice with ctest (plain and with FP8Q_NUM_THREADS=4,
// tests/CMakeLists.txt) so the whole suite also runs on a resized pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/parallel.h"
#include "obs/histogram.h"

namespace fp8q {
namespace {

struct HistGuard {
  HistGuard() { histograms_reset(); }
  ~HistGuard() {
    set_histograms_enabled(false);
    histograms_reset();
    set_num_threads(0);
  }
};

TEST(HistBuckets, NonpositiveAndNanLandInBucketZero) {
  EXPECT_EQ(hist_bucket_index(0.0), 0);
  EXPECT_EQ(hist_bucket_index(-0.0), 0);
  EXPECT_EQ(hist_bucket_index(-1.5), 0);
  EXPECT_EQ(hist_bucket_index(-std::numeric_limits<double>::infinity()), 0);
  EXPECT_EQ(hist_bucket_index(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(HistBuckets, RangeClampsAtBothEnds) {
  // Below 2^kHistMinExp2: first finite bucket (including subnormals).
  EXPECT_EQ(hist_bucket_index(std::ldexp(1.0, kHistMinExp2 - 10)), 1);
  EXPECT_EQ(hist_bucket_index(std::numeric_limits<double>::denorm_min()), 1);
  // At the bottom of the covered range: still bucket 1.
  EXPECT_EQ(hist_bucket_index(std::ldexp(1.0, kHistMinExp2)), 1);
  // Above 2^(kHistMaxExp2+1): last bucket, including +Inf.
  EXPECT_EQ(hist_bucket_index(std::ldexp(1.0, kHistMaxExp2 + 5)), kHistBucketCount - 1);
  EXPECT_EQ(hist_bucket_index(std::numeric_limits<double>::infinity()),
            kHistBucketCount - 1);
}

TEST(HistBuckets, LowerBoundIsTheBucketRepresentative) {
  EXPECT_EQ(hist_bucket_lower_bound(0), 0.0);
  // Every finite bucket's lower bound maps back to that bucket.
  for (int i = 1; i < kHistBucketCount; ++i) {
    EXPECT_EQ(hist_bucket_index(hist_bucket_lower_bound(i)), i) << "bucket " << i;
  }
  // Sub-buckets split a binade log-uniformly: 1.0 and 1.125 differ.
  EXPECT_NE(hist_bucket_index(1.0), hist_bucket_index(1.125 + 1e-9));
  EXPECT_EQ(hist_bucket_lower_bound(hist_bucket_index(1.0)), 1.0);
}

TEST(HistBuckets, IndexIsMonotoneInValue) {
  int prev = 0;
  for (double v = 1e-20; v < 1e15; v *= 1.07) {
    const int b = hist_bucket_index(v);
    EXPECT_GE(b, prev) << "value " << v;
    prev = b;
  }
}

TEST(HistQuantile, EmptyAndSingleValue) {
  HistogramSnapshot empty;
  EXPECT_FALSE(empty.any());
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  LocalHistogram one;
  one.record(42.5);
  // Clamping into [min, max] makes a one-value histogram exact everywhere.
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.snap.quantile(q), 42.5) << "q=" << q;
  }
}

TEST(HistQuantile, NearestRankOnTwoPointMass) {
  LocalHistogram h;
  for (int i = 0; i < 50; ++i) h.record(1.0);
  for (int i = 0; i < 50; ++i) h.record(1024.0);
  // rank ceil(0.5*100) = 50 -> still in the 1.0 bucket (clamped to min).
  EXPECT_EQ(h.snap.quantile(0.5), 1.0);
  // rank 51 -> the 1024.0 bucket; 1024 = 2^10 is an exact bucket bound.
  EXPECT_EQ(h.snap.quantile(0.51), 1024.0);
  EXPECT_EQ(h.snap.quantile(1.0), 1024.0);
  EXPECT_EQ(h.snap.min_value, 1.0);
  EXPECT_EQ(h.snap.max_value, 1024.0);
  EXPECT_EQ(h.snap.total, 100u);
}

TEST(HistQuantile, MaxIsExactNotABucketBound) {
  LocalHistogram h;
  h.record(3.0);
  h.record(7.3);  // interior of a bucket: lower bound < 7.3
  EXPECT_EQ(h.snap.quantile(1.0), 7.3);
  EXPECT_LT(hist_bucket_lower_bound(hist_bucket_index(7.3)), 7.3);
}

TEST(HistMerge, CommutativeAndAssociative) {
  LocalHistogram a, b, c;
  for (int i = 1; i <= 100; ++i) a.record(0.01 * i);
  for (int i = 1; i <= 50; ++i) b.record(3.0 * i);
  c.record(1e-30);

  HistogramSnapshot abc = a.snap;
  abc.merge_from(b.snap);
  abc.merge_from(c.snap);

  HistogramSnapshot cba = c.snap;
  cba.merge_from(b.snap);
  cba.merge_from(a.snap);

  EXPECT_TRUE(abc == cba);
  EXPECT_EQ(abc.total, 151u);
  EXPECT_EQ(abc.min_value, 1e-30);
  EXPECT_EQ(abc.max_value, 150.0);
}

TEST(HistMerge, EmptyMergeIsIdentity) {
  LocalHistogram a;
  a.record(5.0);
  HistogramSnapshot merged = a.snap;
  merged.merge_from(HistogramSnapshot{});
  EXPECT_TRUE(merged == a.snap);
}

// The acceptance criterion: recording the same value set in chunks
// (a LocalHistogram and one hist_merge per chunk, the fold fp8/cast_fast.cpp
// makes once per call), the chunks run as parallel_run units, must produce
// bitwise-identical merged snapshots at 1 thread and at 4 -- counts,
// totals, min/max and therefore every quantile -- whatever order the
// chunks merge in.
TEST(HistDeterminism, MergedSnapshotInvariantAcrossThreadCounts) {
  HistGuard guard;
  set_histograms_enabled(true);

  std::vector<double> values(100000);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : values) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Spread over ~12 decades, including a pinch of zeros into bucket 0.
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    v = (state % 97 == 0) ? 0.0 : std::ldexp(u, static_cast<int>(state % 40) - 20);
  }

  auto run_at = [&](int threads) {
    histograms_reset();
    set_num_threads(threads);
    const auto n = static_cast<std::int64_t>(values.size());
    constexpr std::int64_t kChunk = 1024;
    parallel_run((n + kChunk - 1) / kChunk, [&](std::int64_t c) {
      LocalHistogram local;
      for (std::int64_t i = c * kChunk; i < std::min(n, (c + 1) * kChunk); ++i) {
        local.record(values[static_cast<std::size_t>(i)]);
      }
      hist_merge(ObsFormat::kE4M3, local);
    });
    return histogram_snapshot(ObsFormat::kE4M3);
  };

  const HistogramSnapshot serial = run_at(1);
  const HistogramSnapshot parallel4 = run_at(4);

  EXPECT_EQ(serial.total, values.size());
  EXPECT_TRUE(serial == parallel4);  // bitwise: counts, total, min, max
  for (double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(serial.quantile(q), parallel4.quantile(q)) << "q=" << q;
  }
}

TEST(HistRegistry, GatingSkipsRecordingWhenDisabled) {
  HistGuard guard;
  set_histograms_enabled(false);
  EXPECT_FALSE(histograms_enabled());
  // The gate is the caller's contract: instrumented sites check it before
  // recording. Verify the flag flips and recording lands when enabled.
  set_histograms_enabled(true);
  EXPECT_TRUE(histograms_enabled());
  LocalHistogram local;
  local.record(123.0);
  hist_merge(ObsFormat::kE4M3, local);
  EXPECT_EQ(histogram_snapshot(ObsFormat::kE4M3).total, 1u);
}

TEST(HistRegistry, AllHistogramsUseStableNamesSorted) {
  HistGuard guard;
  // ObsFormat order (e5m2, e4m3, e3m4, int8) is not name order.
  for (const ObsFormat fmt : {ObsFormat::kInt8, ObsFormat::kE5M2, ObsFormat::kE3M4}) {
    LocalHistogram local;
    local.record(1.0);
    hist_merge(fmt, local);
  }

  const auto all = all_histograms_snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "cast_mag/e3m4");
  EXPECT_EQ(all[1].name, "cast_mag/e5m2");
  EXPECT_EQ(all[2].name, "cast_mag/int8");
  EXPECT_EQ(all[2].hist.total, 1u);

  histograms_reset();
  EXPECT_TRUE(all_histograms_snapshot().empty());
  EXPECT_EQ(histogram_snapshot(ObsFormat::kE5M2).total, 0u);
}

}  // namespace
}  // namespace fp8q
