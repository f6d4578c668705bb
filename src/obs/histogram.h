// Log-bucketed value/latency histograms (docs/OBSERVABILITY.md).
//
// The paper's analysis is distributional -- tensor-value histograms
// (Fig. 3), per-format saturation behavior -- and so are the operational
// questions the telemetry layer must answer (tail latency, per-stage and
// per-trial cost). Scalars cannot express either; these histograms can, while
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
// Sharding mirrors obs/trace.cpp: each thread owns a registry-held shard
// (kept alive by shared_ptr across pool resizes); recording locks only
// the calling thread's shard, and snapshots merge every shard plus a
// global named-histogram table. Channels (HistChannel) are the fixed,
// hot instrumentation points; named histograms cover open-ended keys
// (per-stage latencies) at map-lookup cost.
//
// Scoped routing: a thread bound to a CounterDomain (obs/domain.h)
// redirects the *channel* record/merge/snapshot/reset functions to the
// domain. The named table stays process-global -- open-ended telemetry,
// not part of a job's deterministic result surface.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
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
/// min/max. Also the per-thread shard cell and the JSON round-trip form.
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

  /// Commutative, associative merge; the shard-fold primitive.
  void merge_from(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

/// Stack-local accumulator for hot loops: record per element, fold into
/// the shared shard once per chunk with hist_merge (one lock per chunk,
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

/// Fixed instrumentation channels. The cast_mag/* channels record the
/// pre-quantization |x| distribution in the scaled domain (the format's
/// own range), one channel per ObsFormat; they are deterministic and
/// thread-count-invariant. The latency/* channels record wall-clock
/// durations in nanoseconds; their *values* are nondeterministic (clock)
/// and their counts may vary with thread count (chunking) --
/// they are performance observations, not results.
enum class HistChannel : std::uint8_t {
  kCastMagE5M2,
  kCastMagE4M3,
  kCastMagE3M4,
  kCastMagInt8,
  kCastMagOther,
  kStageWallNs,      ///< ScopedStage durations
  kTuneTrialNs,      ///< tuner per-trial evaluation times
  kParallelTaskNs,   ///< parallel_run task durations (needs tracing on)
};
inline constexpr int kHistChannelCount = 8;

/// Stable names used in report.json ("cast_mag/e4m3", "latency/stage_ns").
[[nodiscard]] const char* to_string(HistChannel channel);

/// The magnitude channel for a format (same order as ObsFormat).
[[nodiscard]] HistChannel cast_mag_channel(ObsFormat fmt);

/// True when instrumented sites should record. Defaults to the
/// environment: enabled when FP8Q_HIST or FP8Q_TRACE is truthy or
/// FP8Q_REPORT is set; set_histograms_enabled overrides.
[[nodiscard]] bool histograms_enabled();
void set_histograms_enabled(bool enabled);

/// Records one value into the calling thread's shard. Callers on hot
/// loops accumulate a LocalHistogram and fold with hist_merge instead.
void hist_record(HistChannel channel, double v);

/// Folds a chunk-local accumulation into the calling thread's shard.
void hist_merge(HistChannel channel, const LocalHistogram& local);

/// Records into the open-ended named table (per-stage latencies). The
/// table is process-global and mutex-guarded; use for per-region events,
/// not per-element ones.
void hist_record_named(std::string_view name, double v);

/// One named histogram as surfaced in reports.
struct NamedHistogram {
  std::string name;
  HistogramSnapshot hist;
};

/// Merged snapshot of one channel across every shard (live and retired).
[[nodiscard]] HistogramSnapshot histogram_snapshot(HistChannel channel);

/// Every named histogram, sorted by name.
[[nodiscard]] std::vector<NamedHistogram> named_histogram_snapshot();

/// All channels with any() data plus all named histograms, each under its
/// stable name, sorted. The report writer's source.
[[nodiscard]] std::vector<NamedHistogram> all_histograms_snapshot();

/// Zeroes every shard and the named table. Call only while no
/// instrumented work is running.
void histograms_reset();

}  // namespace fp8q
