// Log-bucketed histograms (docs/OBSERVABILITY.md).
//
// The paper's analysis is distributional -- tensor-value histograms
// (Fig. 3), per-format saturation behavior -- and scalars cannot express
// it. Each counted bulk cast records the |x| distribution it quantizes
// into one cast_mag/<format> histogram per ObsFormat (the fp8qd stats
// endpoint reuses the bucket types for its own latency quantiles),
// keeping the two properties the rest of the obs layer guarantees:
//
//   determinism   Bucket counts are integers and bucket assignment is a
//                 pure function of the recorded value's bits, so merged
//                 totals -- and every quantile derived from them -- are
//                 identical at any thread count (docs/THREADING.md). No
//                 floating-point sums are kept: a sum's value depends on
//                 accumulation order, a count's does not. min/max are
//                 exact and order-invariant.
//
//   disabled cost Instrumented sites check histograms_enabled() once per
//                 bulk call (one relaxed atomic load) and skip all
//                 recording, exactly like counters_enabled().
//
// Bucket layout (HDR-histogram style): nonpositive/NaN values land in
// bucket 0; positive values are split by power-of-two binade (exponent
// clamped to [kHistMinExp2, kHistMaxExp2]) with kHistSubBuckets
// log-spaced sub-buckets per binade (top mantissa bits), giving a
// constant ~9% relative resolution over ~38 decades. quantile(q) returns
// the lower bound of the bucket holding the rank-ceil(q*total) value
// (clamped into [min, max]), so p50/p95/p99 are exact to one bucket and
// max is exact.
//
// Routing mirrors obs/counters.h: hist_merge, histogram_snapshot and
// histograms_reset act on the calling thread's observation domain
// (obs/domain.h) -- its bound CounterDomain, else the process root.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.h"

namespace fp8q {

/// Sub-buckets per power-of-two binade (log-spaced, from the top
/// mantissa bits): resolution is a constant factor 2^(1/8) ~ 9%.
inline constexpr int kHistSubBucketBits = 3;
inline constexpr int kHistSubBuckets = 1 << kHistSubBucketBits;

/// Binade range covered exactly: [2^-80, 2^48). Below, values clamp into
/// the first finite bucket; above (and +Inf), into the last. The range
/// spans both fake-quant magnitudes (FP8 subnormals sit near 2^-27 after
/// per-channel scaling) and nanosecond latencies (2^48 ns ~ 3 days).
inline constexpr int kHistMinExp2 = -80;
inline constexpr int kHistMaxExp2 = 47;

/// Bucket 0 = zero/negative/NaN; then one bucket per (binade, sub-bucket).
inline constexpr int kHistBucketCount =
    1 + (kHistMaxExp2 - kHistMinExp2 + 1) * kHistSubBuckets;

/// Bucket index for a value: pure bit arithmetic on the double, no
/// branches on data beyond the clamps. Deterministic by construction.
[[nodiscard]] int hist_bucket_index(double v);

/// Lower bound of bucket i (0.0 for bucket 0). Exact: built from ldexp of
/// a dyadic rational, and the deterministic quantile representative.
[[nodiscard]] double hist_bucket_lower_bound(int bucket);

/// A merged (or merging) histogram: integer bucket counts plus exact
/// min/max. Also a domain's stored form and the JSON round-trip form.
struct HistogramSnapshot {
  std::uint64_t counts[kHistBucketCount] = {};
  std::uint64_t total = 0;
  double min_value = 0.0;  ///< exact smallest recorded value (valid when total > 0)
  double max_value = 0.0;  ///< exact largest recorded value (valid when total > 0)

  [[nodiscard]] bool any() const { return total != 0; }

  /// Lower bound of the bucket containing the value of rank ceil(q*total)
  /// (1-based), clamped into [min_value, max_value] so quantile(1.0) is
  /// the exact max and a single-value histogram reports that value for
  /// every q. Returns 0 when empty. Bitwise-deterministic given equal
  /// bucket counts.
  [[nodiscard]] double quantile(double q) const;

  /// Commutative, associative merge; the domain-fold primitive.
  void merge_from(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

/// Stack-local accumulator for hot loops: record per element, fold into
/// the domain once per bulk call with hist_merge (one lock per call,
/// mirroring how CastTally folds into counter_add).
struct LocalHistogram {
  HistogramSnapshot snap;

  void record(double v) {
    ++snap.counts[static_cast<std::size_t>(hist_bucket_index(v))];
    if (snap.total == 0) {
      snap.min_value = v;
      snap.max_value = v;
    } else {
      if (v < snap.min_value) snap.min_value = v;
      if (v > snap.max_value) snap.max_value = v;
    }
    ++snap.total;
  }
};

/// True when instrumented sites should record. Defaults to the
/// environment: enabled when FP8Q_TRACE is truthy or FP8Q_REPORT is set;
/// set_histograms_enabled overrides.
[[nodiscard]] bool histograms_enabled();
void set_histograms_enabled(bool enabled);

/// Folds a call-local accumulation of pre-quantization magnitudes into
/// the calling thread's domain, under cast_mag/<fmt>.
void hist_merge(ObsFormat fmt, const LocalHistogram& local);

/// The calling thread's domain's cast_mag/<fmt> histogram.
[[nodiscard]] HistogramSnapshot histogram_snapshot(ObsFormat fmt);

/// One histogram as surfaced in reports.
struct NamedHistogram {
  std::string name;
  HistogramSnapshot hist;
};

/// Every cast_mag/<format> histogram with any() data, under its stable
/// report name ("cast_mag/e4m3"), sorted by name. The report writer's
/// source.
[[nodiscard]] std::vector<NamedHistogram> all_histograms_snapshot();

/// Zeroes the calling thread's domain's histograms. Call only while no
/// instrumented work is running.
void histograms_reset();

}  // namespace fp8q
