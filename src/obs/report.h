// Structured run reports (docs/OBSERVABILITY.md).
//
// A RunReport is the machine-readable record of one run: coarse named
// stages (wall time + the quantization-event counter delta over the
// stage), the final AccuracyRecords, and -- when tracing was on -- the
// full span list. It serializes to JSON with no external dependencies;
// io/serialize.h provides the matching reader (report_from_json) so
// reports round-trip through the library's own I/O layer.
//
// Wiring: a tool (bench, CLI, test) owns a RunReport and publishes it with
// set_active_report(); instrumented code (the tuner's stages, the benches'
// sweep phases) appends stages through ScopedStage without knowing who is
// collecting. With no active report, ScopedStage only emits a TraceSpan
// (itself a no-op when tracing is off). write_report_if_requested() writes
// the JSON to the path in FP8Q_REPORT, making every instrumented binary
// report-capable via the environment alone.
//
// Determinism note (docs/THREADING.md): stage wall times are
// nondeterministic, and a stage's counter delta is its observation
// domain's total (obs/domain.h; the process root unless the thread binds
// one) over the stage's wall window -- under concurrent stages (the
// tuner's parallel ladder) events are attributed to every stage whose
// window they fall in. Stage order, record order and counter totals over
// the whole run are deterministic.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/passrate.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/memory.h"
#include "obs/trace.h"

namespace fp8q {

/// Schema version written as "fp8q_report_version".
/// v2 added the quantized-weight cache counters (dropped in v5);
/// v3 added the "memory" block (peak RSS + allocation totals), per-stage
/// allocation deltas, and the "histograms" block (obs/histogram.h);
/// v4 added the "isa" field (selected dispatch tier, core/cpu_dispatch.h)
/// and a block of packed-vs-FP32 kernel path counts;
/// v5 dropped the cache counters and the cache-decode kernel path, along
/// with the cache itself;
/// v6 dropped the kernel path counts, along with the packed kernels.
/// The reader accepts every version from 1 up, defaulting missing blocks
/// and ignoring removed ones (io/serialize.cpp).
inline constexpr int kReportVersion = 6;

/// One named phase of a run.
struct StageReport {
  std::string name;
  double wall_ms = 0.0;
  /// Counter delta over the stage window (see determinism note above).
  CounterSnapshot counters;
  /// Tensor-allocation delta over the stage window (obs/memory.h), from
  /// the same domain as the counter delta.
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
};

/// Process memory figures at write time (obs/memory.h).
struct MemoryReport {
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t allocs = 0;
};

/// The full structured record of one run.
struct RunReport {
  std::string tool;     ///< producing binary, e.g. "bench_table2_passrate"
  int num_threads = 0;  ///< fp8q::num_threads() at collection time
  /// Resolved kernel dispatch label, e.g. "native:avx2" (schema v4). Set
  /// by the caller like tool/num_threads: obs sits below core in the link
  /// graph, so it cannot ask cpu_dispatch itself.
  std::string isa;
  std::vector<StageReport> stages;
  std::vector<AccuracyRecord> records;
  /// Cumulative counters at write time (totals, independent of stages).
  CounterSnapshot counters;
  /// Peak RSS and allocation totals at write time (schema v3).
  MemoryReport memory;
  /// Every histogram with data at write time, sorted by name (schema v3).
  std::vector<NamedHistogram> histograms;
  std::vector<SpanRecord> spans;
  std::uint64_t spans_dropped = 0;  ///< trace_dropped() at write time

  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;
};

/// `s` as a quoted JSON string: quote, backslash, \n, \r and \t take
/// their short escapes, other control characters \u00XX, and every other
/// byte passes through. The one string escaper behind every JSON writer:
/// run reports, Chrome traces, and fp8qd's responses and bench snapshots.
[[nodiscard]] std::string json_quoted(std::string_view s);

/// The report instrumented code appends to, or nullptr: the report of
/// the calling thread's observation domain (obs/domain.h) -- its bound
/// domain's, else the root's. Appends are internally synchronized.
[[nodiscard]] RunReport* active_report();

/// Publishes the process-wide report (the tool main()s' path): the root
/// domain's. A thread bound to another domain sees that domain's report
/// instead; fp8qd binds one domain per job, carrying the job's report, so
/// concurrent jobs append stages to their own reports, and the parallel
/// runtime carries the binding to the pool threads a job fans out to.
void set_active_report(RunReport* report);

/// RAII stage: measures wall time, the counter delta and the allocation
/// delta of a scope and appends a StageReport to the active report (if
/// any) on destruction. Also opens a TraceSpan of the same name. With no
/// active report and tracing off, cost is two relaxed flag checks.
class ScopedStage {
 public:
  explicit ScopedStage(std::string_view name);
  ~ScopedStage();

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  bool armed_ = false;  ///< a report was active at construction
  std::string name_;
  std::uint64_t start_ns_ = 0;
  CounterSnapshot start_counters_;
  AllocCounterSnapshot start_allocs_;
  TraceSpan span_;
};

/// Appends a pre-measured stage to the active report (thread-safe; no-op
/// without an active report). For sites that time work themselves, e.g.
/// the tuner recording each trial in deterministic history order.
void report_add_stage(std::string_view name, double wall_ms,
                      const CounterSnapshot& counters = {},
                      std::uint64_t alloc_bytes = 0, std::uint64_t allocs = 0);

/// The FP8Q_REPORT path, or nullptr when unset/empty.
[[nodiscard]] const char* report_env_path();

/// If FP8Q_REPORT is set: finalizes `report` (fills counters and spans
/// from the process-wide buffers) and writes JSON to that path. The caller
/// sets `tool` and `num_threads` itself (obs sits below core in the link
/// graph, so it cannot ask the runtime). Returns true when a report was
/// written; throws on I/O failure.
bool write_report_if_requested(RunReport& report);

}  // namespace fp8q
