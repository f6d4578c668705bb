// Quantization-event counters (docs/OBSERVABILITY.md).
//
// Counts the numerical events that decide whether an FP8 recipe works --
// the saturation / underflow / NaN effects that make E4M3 vs E3M4 diverge
// (Kuzmin et al., Micikevicius et al.) -- per format, process-wide:
//
//   kQuantized      elements pushed through a counted bulk cast
//   kSaturated      finite magnitude beyond max_value clamped to +/-max
//                   (includes +/-Inf inputs: every cast saturates)
//   kFlushedToZero  nonzero input rounded to +/-0 (below half the
//                   smallest subnormal after scaling)
//   kNanProduced    NaN output from a non-NaN input; NaN pass-through is
//                   not counted
//   kInfProduced    Inf output from a finite input
//
// No cast produces the last two (every cast saturates); they stay in the
// matrix because report schema v6 lists every event.
//
// Design: every add lands in the calling thread's observation domain
// (obs/domain.h): the CounterDomain bound with ScopedCounterDomain, else
// the process's root domain, which every unbound thread shares. A cell is
// one relaxed atomic add; counters_snapshot() reads the same domain. This
// is compatible with the docs/THREADING.md determinism contract: counting
// never changes a computed value, and totals are integer sums, identical
// at every thread count.
//
// Cost when disabled: instrumented sites check counters_enabled() once per
// *bulk call* (one relaxed atomic load), never per element, and run their
// original uninstrumented loops. Enable with FP8Q_TRACE=1, by setting
// FP8Q_REPORT, or programmatically via set_counters_enabled(true).
//
// Scoped routing is how fp8qd isolates one job's events under concurrent
// execution: a job's threads bind its own domain, so every add, snapshot
// and reset in this header acts on that domain instead of the root.
#pragma once

#include <cstdint>

namespace fp8q {

/// Format dimension of the counter matrix. Kept obs-local (not DType) so
/// the obs layer stays below fp8/ and quant/ in the link order. kOther
/// buckets custom EeMm formats built with make_format.
enum class ObsFormat : std::uint8_t { kE5M2, kE4M3, kE3M4, kInt8, kOther };
inline constexpr int kObsFormatCount = 5;

/// Event dimension of the counter matrix (see file comment).
enum class ObsEvent : std::uint8_t {
  kQuantized,
  kSaturated,
  kFlushedToZero,
  kNanProduced,
  kInfProduced,
};
inline constexpr int kObsEventCount = 5;

/// Stable lowercase names used in report.json ("e4m3", "saturated", ...).
[[nodiscard]] const char* to_string(ObsFormat fmt);
[[nodiscard]] const char* to_string(ObsEvent event);

/// True when instrumented sites should count. Defaults to the environment:
/// enabled when FP8Q_TRACE is truthy or FP8Q_REPORT is set.
[[nodiscard]] bool counters_enabled();

/// Programmatic override of the environment default (tests, embedders).
void set_counters_enabled(bool enabled);

/// Adds `n` to one cell of the calling thread's domain. Thread-safe and
/// wait-free against other writers; callers batch a local tally per bulk call
/// into one add rather than incrementing per element.
void counter_add(ObsFormat fmt, ObsEvent event, std::uint64_t n);

/// Point-in-time copy of a domain's counter matrix.
struct CounterSnapshot {
  std::uint64_t counts[kObsFormatCount][kObsEventCount] = {};

  [[nodiscard]] std::uint64_t get(ObsFormat fmt, ObsEvent event) const {
    return counts[static_cast<int>(fmt)][static_cast<int>(event)];
  }
  /// Sum of one event over every format.
  [[nodiscard]] std::uint64_t total(ObsEvent event) const;
  /// True if any cell is nonzero.
  [[nodiscard]] bool any() const;
  /// Cell-wise difference (for "delta over a stage"); saturates at 0 if a
  /// reset happened in between.
  [[nodiscard]] CounterSnapshot since(const CounterSnapshot& earlier) const;

  friend bool operator==(const CounterSnapshot&, const CounterSnapshot&);
};

/// The calling thread's domain's counters. Safe to call concurrently with
/// counter_add; concurrent adds may or may not be included (each cell is
/// internally consistent, the snapshot is not a cross-cell atomic cut).
[[nodiscard]] CounterSnapshot counters_snapshot();

/// Zeroes the calling thread's domain's counters. Call only while no
/// instrumented work is running.
void counters_reset();

}  // namespace fp8q
