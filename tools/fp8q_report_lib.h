// fp8q_report engine (docs/OBSERVABILITY.md): pretty-prints one run
// report, diffs two against explicit regression thresholds, validates a
// Chrome trace export, and gates BENCH_*.json kernel snapshots. A static
// library so tests/tools/report_cli_test.cpp drives every mode
// in-process; tools/fp8q_report.cpp is the thin CLI that tools/ci.sh uses
// as the perf regression gate.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "io/json.h"
#include "obs/report.h"

namespace fp8q::report_cli {

/// Regression thresholds for diff_reports. A negative value disables that
/// check; 0 demands exact equality (counters) or no increase (the rest).
struct DiffThresholds {
  /// Per-stage wall-time growth, percent of the baseline stage. Stages
  /// are matched by name; unmatched stages are reported but never fail.
  double max_wall_regress_pct = -1.0;
  /// Growth of total tensor-allocation bytes ("memory.alloc_bytes") and,
  /// under the same limit, of their count ("memory.allocs"), pct.
  double max_alloc_growth_pct = -1.0;
  /// Growth of peak RSS ("memory.peak_rss_bytes"), percent.
  double max_rss_growth_pct = -1.0;
  /// Absolute drop of fp32_accuracy and of quant_accuracy per record,
  /// matched by (workload, config, occurrence index), so repeated configs
  /// (a tuner report's trials) pair up in order. When enabled, a record
  /// present in only one of the two reports is a breach too.
  double max_accuracy_drop = -1.0;
  /// Absolute drop of the overall pass rate, in percentage points.
  double max_pass_rate_drop = -1.0;
  /// Relative drift of any cumulative quantization-event counter cell,
  /// percent. 0 demands bit-identical counters (the determinism gate).
  double max_counter_drift_pct = -1.0;
};

/// Human-readable rendering of one report (stages, counters, memory,
/// histograms with p50/p95/p99/max, accuracy records).
[[nodiscard]] std::string format_report(const RunReport& report);

/// Compares candidate against base under `t`, writing one line per
/// observation to `out`. Returns the number of threshold breaches
/// (0 = gate passes).
int diff_reports(const RunReport& base, const RunReport& candidate,
                 const DiffThresholds& t, std::ostream& out);

/// Structural validation of a Chrome trace-event JSON document (the
/// FP8Q_TRACE_JSON export): must parse, hold a "traceEvents" array whose
/// entries carry name/ph/ts/pid/tid, "X" events need a non-negative dur
/// and must nest properly per thread, and every flow step ("f") must have
/// a matching start ("s") with the same id. Returns the list of problems;
/// empty = valid.
[[nodiscard]] std::vector<std::string> validate_chrome_trace(std::string_view json_text);

/// Gate over one BENCH_*.json snapshot. Kernel snapshots (bench_kernels):
/// when min_dispatch_speedup > 0, every "cast", "gemm" and "gelu" entry's
/// dispatched/scalar kernel speedup must be >= min_dispatch_speedup (a
/// missing cast, gemm or gelu section is then a breach; <= 0 skips the
/// gate). Service snapshots (fp8qd_bench, docs/SERVICE.md): when
/// min_jobs_per_sec > 0, the "service" section's sustained jobs_per_sec
/// must be >= that floor (a missing service section is then a breach;
/// <= 0 skips the service gate), and a multi-row "runs" array (the
/// --append worker-scaling curve) is echoed one note per row. A snapshot
/// with neither a cast nor a service section is always a breach. Returns
/// breach count.
int check_bench(const json::Value& bench, double min_dispatch_speedup, double min_jobs_per_sec,
                std::ostream& out);

/// Diffs two BENCH_kernels*.json snapshots: dispatched cast throughput
/// (per format and tally), matmul GFLOP/s and dispatched GEMM-kernel
/// GFLOP/s (per shape) may regress at most max_regress_pct percent.
/// Returns breach count.
int diff_bench(const json::Value& base, const json::Value& candidate,
               double max_regress_pct, std::ostream& out);

/// Entry point shared by the CLI and the in-process tests: argv-style
/// arguments, 0 on success, 1 on gate failure, 2 on usage/IO errors.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace fp8q::report_cli
