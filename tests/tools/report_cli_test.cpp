// fp8q_report engine (tools/fp8q_report_lib.h), driven in-process: diff
// thresholds, the trace validator, the BENCH_*.json gates and the CLI
// entry point's exit codes. The thin binary (tools/fp8q_report.cpp) only
// forwards argv here, so this is the coverage for the CI perf gate
// (tools/ci.sh step 3).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fp8q_report_lib.h"
#include "obs/counters.h"
#include "obs/trace_export.h"

namespace fp8q {
namespace {

using report_cli::DiffThresholds;

RunReport sample_report() {
  RunReport r;
  r.tool = "cli-test";
  r.num_threads = 2;

  StageReport stage;
  stage.name = "phase-a";
  stage.wall_ms = 10.0;
  r.stages.push_back(stage);

  r.counters.counts[static_cast<int>(ObsFormat::kE4M3)]
                   [static_cast<int>(ObsEvent::kQuantized)] = 1000;
  r.memory.peak_rss_bytes = 100 << 20;
  r.memory.alloc_bytes = 1000;
  r.memory.allocs = 10;

  AccuracyRecord rec;
  rec.workload = "resnet50-ish";
  rec.domain = "CV";
  rec.config = "E4M3/static";
  rec.fp32_accuracy = 0.80;
  rec.quant_accuracy = 0.80;
  r.records.push_back(rec);

  NamedHistogram nh;
  nh.name = "cast_mag/e4m3";
  LocalHistogram local;
  local.record(1.0);
  local.record(100.0);
  nh.hist = local.snap;
  r.histograms.push_back(nh);
  return r;
}

DiffThresholds all_gates() {
  DiffThresholds t;
  t.max_wall_regress_pct = 50.0;
  t.max_alloc_growth_pct = 50.0;
  t.max_rss_growth_pct = 50.0;
  t.max_accuracy_drop = 0.01;
  t.max_pass_rate_drop = 0.0;
  t.max_counter_drift_pct = 0.0;
  return t;
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(ReportDiff, IdenticalReportsPassEveryGate) {
  const RunReport r = sample_report();
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(r, r, all_gates(), out), 0) << out.str();
}

TEST(ReportDiff, DefaultThresholdsDisableAllChecks) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.counters.counts[0][0] = 999;  // would fail the drift gate
  cand.memory.alloc_bytes *= 100;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, DiffThresholds{}, out), 0);
}

TEST(ReportDiff, ZeroCounterDriftCatchesASingleEvent) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.counters.counts[static_cast<int>(ObsFormat::kE4M3)]
                      [static_cast<int>(ObsEvent::kQuantized)] += 1;
  DiffThresholds t;
  t.max_counter_drift_pct = 0.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);
  EXPECT_NE(out.str().find("FAIL"), std::string::npos);
  // A counter appearing from zero is infinite drift, also a breach.
  cand = sample_report();
  cand.counters.counts[static_cast<int>(ObsFormat::kE5M2)]
                      [static_cast<int>(ObsEvent::kSaturated)] = 1;
  std::ostringstream out2;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out2), 1);
}

TEST(ReportDiff, WallRegressionGate) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.stages[0].wall_ms = 20.0;  // +100%
  DiffThresholds t;
  t.max_wall_regress_pct = 50.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);
  t.max_wall_regress_pct = 150.0;
  std::ostringstream out2;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out2), 0);
}

TEST(ReportDiff, UnmatchedStagesAreNotesNotBreaches) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  StageReport extra;
  extra.name = "phase-b";
  cand.stages.push_back(extra);
  base.stages[0].name = "renamed";  // now unmatched in both directions
  DiffThresholds t;
  t.max_wall_regress_pct = 0.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 0);
  EXPECT_NE(out.str().find("note"), std::string::npos);
}

TEST(ReportDiff, MemoryGrowthGates) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.memory.alloc_bytes = 1600;          // +60% over 1000
  cand.memory.peak_rss_bytes = 120 << 20;  // +20%
  DiffThresholds t;
  t.max_alloc_growth_pct = 50.0;
  t.max_rss_growth_pct = 50.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);  // alloc only
  t.max_rss_growth_pct = 10.0;
  std::ostringstream out2;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out2), 2);
}

TEST(ReportDiff, AllocationCountGateFailsAtEqualBytes) {
  // The same bytes over one more allocation: the bytes line passes and
  // the count line fails, under the same limit.
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.memory.allocs = 11;
  DiffThresholds t;
  t.max_alloc_growth_pct = 0.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);
  EXPECT_NE(out.str().find("tensor alloc bytes 1000 -> 1000"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("tensor allocations 10 -> 11"), std::string::npos) << out.str();
  // Fewer allocations pass this direction; the reverse diff fails them.
  std::ostringstream reverse;
  EXPECT_EQ(report_cli::diff_reports(cand, base, t, reverse), 0) << reverse.str();
}

TEST(ReportDiff, AccuracyAndPassRateGates) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.records[0].quant_accuracy = 0.75;  // drop 0.05, and the record now fails
  DiffThresholds t;
  t.max_accuracy_drop = 0.01;
  t.max_pass_rate_drop = 50.0;
  std::ostringstream out;
  // accuracy drop 0.05 > 0.01 breach; pass rate 100 -> 0 drops 100 pts > 50.
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 2);
  t.max_accuracy_drop = 0.10;
  t.max_pass_rate_drop = 100.0;
  std::ostringstream out2;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out2), 0);
}

TEST(ReportDiff, AccuracyGateCoversTheFp32Baseline) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  cand.records[0].fp32_accuracy = 0.79;  // a changed plan fold
  DiffThresholds t;
  t.max_accuracy_drop = 0.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);
  EXPECT_NE(out.str().find("fp32_accuracy"), std::string::npos) << out.str();
  // Only a drop fails: the reverse diff sees a rise and passes, which is
  // why CI diffs each bit-identity pair both ways.
  std::ostringstream reverse;
  EXPECT_EQ(report_cli::diff_reports(cand, base, t, reverse), 0);
}

TEST(ReportDiff, RecordMissingFromEitherSideIsABreach) {
  RunReport base = sample_report();
  RunReport cand = sample_report();
  AccuracyRecord extra = base.records[0];
  extra.config = "E5M2/direct";
  base.records.push_back(extra);
  DiffThresholds t;
  t.max_accuracy_drop = 0.0;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1);
  EXPECT_NE(out.str().find("E5M2/direct missing from candidate"), std::string::npos)
      << out.str();
  std::ostringstream reverse;
  EXPECT_EQ(report_cli::diff_reports(cand, base, t, reverse), 1);
  EXPECT_NE(reverse.str().find("E5M2/direct missing from base"), std::string::npos)
      << reverse.str();
  // With the accuracy gate off, records are not compared at all.
  std::ostringstream off;
  EXPECT_EQ(report_cli::diff_reports(base, cand, DiffThresholds{}, off), 0);
}

TEST(ReportDiff, RepeatedRecordsPairByOccurrence) {
  // A tuner report repeats a (workload, config) across trials, here with
  // a worse first occurrence. The k-th base record pairs with the k-th
  // candidate record of the same key, not with the first.
  RunReport base = sample_report();
  AccuracyRecord again = base.records[0];
  base.records[0].quant_accuracy = 0.70;
  again.quant_accuracy = 0.78;
  base.records.push_back(again);
  DiffThresholds t;
  t.max_accuracy_drop = 0.0;
  std::ostringstream same;
  EXPECT_EQ(report_cli::diff_reports(base, base, t, same), 0) << same.str();

  // A drop in the second occurrence fails, against that occurrence.
  RunReport cand = base;
  cand.records[1].quant_accuracy = 0.74;
  std::ostringstream out;
  EXPECT_EQ(report_cli::diff_reports(base, cand, t, out), 1) << out.str();
  EXPECT_NE(out.str().find("quant_accuracy 0.78000 -> 0.74000"), std::string::npos)
      << out.str();
}

TEST(ReportFormat, RendersEverySection) {
  const std::string text = report_cli::format_report(sample_report());
  EXPECT_NE(text.find("tool=cli-test"), std::string::npos);
  EXPECT_NE(text.find("phase-a"), std::string::npos);
  EXPECT_NE(text.find("e4m3"), std::string::npos);
  EXPECT_NE(text.find("cast_mag/e4m3"), std::string::npos);
  EXPECT_NE(text.find("p95="), std::string::npos);
  EXPECT_NE(text.find("pass rate: 100.0%"), std::string::npos);
  EXPECT_NE(text.find("peak_rss=100.0 MiB"), std::string::npos);
}

TEST(TraceValidate, AcceptsTheExportersOutput) {
  std::vector<SpanRecord> spans;
  SpanRecord parent;
  parent.name = "dispatch";
  parent.start_ns = 0;
  parent.duration_ns = 10000;
  parent.thread_id = 0;
  parent.id = 1;
  spans.push_back(parent);
  SpanRecord child;
  child.name = "chunk";
  child.start_ns = 2000;
  child.duration_ns = 3000;
  child.thread_id = 1;
  child.id = 2;
  child.parent = 1;
  spans.push_back(child);

  std::ostringstream json_out;
  write_chrome_trace(json_out, spans);
  EXPECT_TRUE(report_cli::validate_chrome_trace(json_out.str()).empty());
}

TEST(TraceValidate, RejectsMalformedDocuments) {
  EXPECT_FALSE(report_cli::validate_chrome_trace("not json").empty());
  EXPECT_FALSE(report_cli::validate_chrome_trace("[]").empty());
  EXPECT_FALSE(report_cli::validate_chrome_trace("{}").empty());
  // X event without dur.
  const char* no_dur =
      R"({"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]})";
  EXPECT_FALSE(report_cli::validate_chrome_trace(no_dur).empty());
  // Flow finish without a matching start.
  const char* lone_f =
      R"({"traceEvents": [{"name": "f", "ph": "f", "id": 9, "ts": 0, "pid": 1, "tid": 0}]})";
  EXPECT_FALSE(report_cli::validate_chrome_trace(lone_f).empty());
}

TEST(TraceValidate, RejectsPartialOverlapOnOneThread) {
  // [0, 100] and [50, 200] on the same tid: neither nests in the other.
  const char* overlap = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 50, "dur": 150, "pid": 1, "tid": 0}
  ]})";
  const auto problems = report_cli::validate_chrome_trace(overlap);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("overlap"), std::string::npos);

  // The same intervals on different threads are fine.
  const char* two_tids = R"({"traceEvents": [
    {"name": "a", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
    {"name": "b", "ph": "X", "ts": 50, "dur": 150, "pid": 1, "tid": 1}
  ]})";
  EXPECT_TRUE(report_cli::validate_chrome_trace(two_tids).empty());
}

// One bench_kernels row per dispatched kernel: cast (per format and
// tally), gemm, gelu and layernorm, each the dispatched tier against the
// scalar tier.
constexpr const char* kKernelRows =
    R"("cast": [{"format": "E4M3", "counted": false, "scalar_elems_per_sec": 1e8,
                 "elems_per_sec": 8e8, "speedup": 8.0},
                {"format": "E4M3", "counted": true, "scalar_elems_per_sec": 1e8,
                 "elems_per_sec": 7e8, "speedup": 7.0}],
       "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0,
                 "gflops": 24.0, "speedup": 3.0}],
       "gelu": [{"n": 1048576, "scalar_elems_per_sec": 3e7,
                 "elems_per_sec": 1.2e8, "speedup": 4.0}],
       "layernorm": [{"rows": 1024, "d": 64, "scalar_elems_per_sec": 7e8,
                      "elems_per_sec": 1.4e9, "speedup": 2.0}])";

TEST(BenchGate, CheckBenchNeedsAKernelOrServiceSection) {
  std::ostringstream out;
  // No cast section at all is itself a failure (silent gate = no gate),
  // armed or not.
  EXPECT_EQ(report_cli::check_bench(json::parse("{}"), 0.0, 0.0, out), 1);
  EXPECT_EQ(report_cli::check_bench(json::parse(R"({"cast": []})"), 0.0, 0.0, out), 1);
  EXPECT_EQ(report_cli::check_bench(json::parse(R"({"cast": []})"), 2.0, 0.0, out), 1);
}

TEST(BenchGate, CheckBenchAppliesTheDispatchFloorToEveryKernelRow) {
  const json::Value bench = json::parse(std::string("{") + kKernelRows + "}");
  std::ostringstream out;
  // <= 0 skips the dispatch gate entirely; above the floor passes; a floor
  // above the measured gemm and gelu speedups but below the casts' breaches
  // twice, and one above every row four times.
  EXPECT_EQ(report_cli::check_bench(bench, 0.0, 0.0, out), 0);
  EXPECT_EQ(report_cli::check_bench(bench, 2.0, 0.0, out), 0);
  EXPECT_EQ(report_cli::check_bench(bench, 5.0, 0.0, out), 2);
  EXPECT_EQ(report_cli::check_bench(bench, 9.0, 0.0, out), 4);
  EXPECT_NE(out.str().find("cast E4M3 uncounted"), std::string::npos);
  EXPECT_NE(out.str().find("cast E4M3 counted"), std::string::npos);
  EXPECT_NE(out.str().find("gemm 64x256x256"), std::string::npos);
  EXPECT_NE(out.str().find("gelu n=1048576"), std::string::npos);
  // With the gate armed, a snapshot without gemm, gelu or layernorm rows
  // breaches once per missing section (silent gate = no gate); unarmed, it
  // passes.
  const json::Value cast_only = json::parse(
      R"({"cast": [{"format": "E4M3", "counted": false, "scalar_elems_per_sec": 1e8,
                    "elems_per_sec": 8e8, "speedup": 8.0}]})");
  EXPECT_EQ(report_cli::check_bench(cast_only, 2.0, 0.0, out), 3);
  EXPECT_EQ(report_cli::check_bench(cast_only, 0.0, 0.0, out), 0);
}

TEST(BenchGate, CheckBenchFailsACastRowBelowTheFloor) {
  // A cast kernel that silently fell back to the scalar tier reads about
  // 1x; the other rows passing must not carry the snapshot. The row has no
  // "speedup" field, so the gate derives it from the two rates.
  const json::Value slow = json::parse(
      R"({"cast": [{"format": "INT8", "counted": true, "scalar_elems_per_sec": 5e7,
                    "elems_per_sec": 6e7}],
          "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0,
                    "gflops": 24.0, "speedup": 3.0}],
          "gelu": [{"n": 1048576, "scalar_elems_per_sec": 3e7,
                    "elems_per_sec": 1.2e8, "speedup": 4.0}],
          "layernorm": [{"rows": 1024, "d": 64, "scalar_elems_per_sec": 7e8,
                         "elems_per_sec": 1.4e9, "speedup": 2.0}]})");
  std::ostringstream out;
  EXPECT_EQ(report_cli::check_bench(slow, 2.0, 0.0, out), 1);
  EXPECT_NE(out.str().find("FAIL  cast INT8 counted dispatched/scalar speedup 1.20x"),
            std::string::npos)
      << out.str();
}

TEST(BenchGate, CheckBenchFailsAGeluRowBelowTheFloor) {
  // A GELU kernel that silently fell back to the scalar tier reads about
  // 1x; the gemm and cast rows passing must not carry the snapshot.
  const json::Value bench = json::parse(
      R"({"cast": [{"format": "E4M3", "counted": false, "scalar_elems_per_sec": 1e8,
                    "elems_per_sec": 8e8, "speedup": 8.0}],
          "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0,
                    "gflops": 24.0, "speedup": 3.0}],
          "gelu": [{"n": 1048576, "scalar_elems_per_sec": 3e7,
                    "elems_per_sec": 3.3e7}],
          "layernorm": [{"rows": 1024, "d": 64, "scalar_elems_per_sec": 7e8,
                         "elems_per_sec": 1.4e9, "speedup": 2.0}]})");
  std::ostringstream out;
  EXPECT_EQ(report_cli::check_bench(bench, 2.0, 0.0, out), 1);
  EXPECT_NE(out.str().find("FAIL  gelu n=1048576 dispatched/scalar speedup 1.10x"),
            std::string::npos)
      << out.str();
}

TEST(BenchGate, CheckBenchHoldsLayerNormRowsToTheirOwnFloor) {
  // LayerNorm's rows clear 1.5x, or the shared floor where it is lower: a
  // 1.8x row passes the shared 2x, and a scalar fallback's 1.1x fails
  // even a shared 1.2x.
  auto bench_with = [](const char* layernorm_speedup) {
    return json::parse(std::string(R"({"cast": [{"format": "E4M3", "counted": false,
                    "scalar_elems_per_sec": 1e8, "elems_per_sec": 8e8, "speedup": 8.0}],
          "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0,
                    "gflops": 24.0, "speedup": 3.0}],
          "gelu": [{"n": 1048576, "scalar_elems_per_sec": 3e7,
                    "elems_per_sec": 1.2e8, "speedup": 4.0}],
          "layernorm": [{"rows": 1280, "d": 48, "scalar_elems_per_sec": 7e8,
                         "elems_per_sec": 8e8, "speedup": )") +
                       layernorm_speedup + "}]}");
  };
  std::ostringstream out;
  EXPECT_EQ(report_cli::check_bench(bench_with("1.8"), 2.0, 0.0, out), 0);
  EXPECT_NE(out.str().find("layernorm 1280x48 dispatched/scalar speedup 1.80x (min 1.50x)"),
            std::string::npos)
      << out.str();
  EXPECT_EQ(report_cli::check_bench(bench_with("1.1"), 2.0, 0.0, out), 1);
  EXPECT_EQ(report_cli::check_bench(bench_with("1.1"), 1.2, 0.0, out), 1);
  EXPECT_NE(out.str().find("FAIL  layernorm 1280x48 dispatched/scalar speedup 1.10x (min 1.20x)"),
            std::string::npos)
      << out.str();
}

TEST(BenchGate, CheckBenchAppliesTheServiceJobsPerSecFloor) {
  // A BENCH_service.json from fp8qd_bench (docs/SERVICE.md): a "service"
  // section instead of kernel sections.
  const json::Value bench = json::parse(
      R"({"service": {"connections": 4, "jobs": 32, "jobs_per_sec": 2.5,
                      "latency_ms": {"count": 32, "p50": 90.0, "p95": 140.0,
                                     "p99": 160.0, "max": 180.0}}})");
  std::ostringstream out;
  // A pure service snapshot passes without cast sections as long as the
  // service gate passes; the floor breaches when above the measurement.
  EXPECT_EQ(report_cli::check_bench(bench, 0.0, 1.0, out), 0);
  EXPECT_EQ(report_cli::check_bench(bench, 0.0, 0.0, out), 0);
  EXPECT_EQ(report_cli::check_bench(bench, 0.0, 5.0, out), 1);
  EXPECT_NE(out.str().find("jobs/sec"), std::string::npos);
  // With the service gate armed, a kernel-only snapshot is a breach
  // (silent gate = no gate), mirroring the kernel rule.
  const json::Value kernels_only = json::parse(std::string("{") + kKernelRows + "}");
  EXPECT_EQ(report_cli::check_bench(kernels_only, 0.0, 1.0, out), 1);
}

TEST(BenchGate, DiffBenchCatchesThroughputRegressions) {
  const json::Value base = json::parse(
      R"({"cast": [{"format": "E4M3", "counted": false, "elems_per_sec": 4e8},
                   {"format": "E4M3", "counted": true, "elems_per_sec": 3e8}],
          "matmul": [{"m": 64, "k": 256, "n": 256, "gflops": 10.0}],
          "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0, "gflops": 30.0}]})");
  const json::Value slower = json::parse(
      R"({"cast": [{"format": "E4M3", "counted": false, "elems_per_sec": 2e8},
                   {"format": "E4M3", "counted": true, "elems_per_sec": 2.9e8}],
          "matmul": [{"m": 64, "k": 256, "n": 256, "gflops": 9.5}],
          "gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0, "gflops": 29.0}]})");
  std::ostringstream out;
  // The uncounted cast halved (-50%) breaches a 20% limit; the counted
  // cast -3%, matmul -5% and gemm -3% do not. Rows pair by format and tally.
  EXPECT_EQ(report_cli::diff_bench(base, slower, 20.0, out), 1);
  EXPECT_NE(out.str().find("FAIL  cast E4M3 uncounted elem/s"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("  ok  cast E4M3 counted elem/s"), std::string::npos) << out.str();
  EXPECT_EQ(report_cli::diff_bench(base, slower, 60.0, out), 0);
  EXPECT_EQ(report_cli::diff_bench(base, base, 0.0, out), 0);
  EXPECT_NE(out.str().find("gemm 64x256x256 GFLOP/s"), std::string::npos);

  // A gemm throughput drop alone is caught too.
  const json::Value slower_gemm = json::parse(
      R"({"gemm": [{"m": 64, "k": 256, "n": 256, "scalar_gflops": 8.0, "gflops": 12.0}]})");
  EXPECT_EQ(report_cli::diff_bench(base, slower_gemm, 20.0, out), 1);
}

TEST(RunCli, ExitCodesAndFlagParsing) {
  std::ostringstream out, err;
  // Usage errors -> 2.
  EXPECT_EQ(report_cli::run({}, out, err), 2);
  EXPECT_EQ(report_cli::run({"frobnicate"}, out, err), 2);
  EXPECT_EQ(report_cli::run({"print"}, out, err), 2);
  EXPECT_EQ(report_cli::run({"print", "/nonexistent/report.json"}, out, err), 2);

  const std::string report_path =
      write_temp("fp8q_cli_report.json", sample_report().to_json());
  EXPECT_EQ(report_cli::run({"print", report_path}, out, err), 0);
  EXPECT_NE(out.str().find("tool=cli-test"), std::string::npos);

  // diff: identical files pass, unknown flags -> 2.
  EXPECT_EQ(report_cli::run({"diff", report_path, report_path,
                             "--max-counter-drift-pct=0"},
                            out, err), 0);
  EXPECT_EQ(report_cli::run({"diff", report_path, report_path, "--bogus=1"}, out, err), 2);

  // diff: a drifted candidate fails the zero-tolerance gate -> 1.
  RunReport drifted = sample_report();
  drifted.counters.counts[static_cast<int>(ObsFormat::kE4M3)]
                         [static_cast<int>(ObsEvent::kQuantized)] += 5;
  const std::string drifted_path =
      write_temp("fp8q_cli_drifted.json", drifted.to_json());
  EXPECT_EQ(report_cli::run({"diff", report_path, drifted_path,
                             "--max-counter-drift-pct=0"},
                            out, err), 1);

  // check-trace: valid empty trace passes, junk fails with 1.
  const std::string trace_path =
      write_temp("fp8q_cli_trace.json", "{\"traceEvents\": []}");
  EXPECT_EQ(report_cli::run({"check-trace", trace_path}, out, err), 0);
  const std::string junk_path = write_temp("fp8q_cli_junk.json", "{nope");
  EXPECT_EQ(report_cli::run({"check-trace", junk_path}, out, err), 1);

  // check-bench honors --min-dispatch-speedup on every kernel row: this
  // snapshot's cast row reads 2x and it has no gemm or gelu section, so a
  // floor fails while the default (0 = off) keeps it valid. The flags the
  // dispatch floor replaced are now unknown.
  const std::string bench_path = write_temp(
      "fp8q_cli_bench.json",
      R"({"cast": [{"format": "E4M3", "counted": false, "speedup": 2.0,
                    "scalar_elems_per_sec": 1e8, "elems_per_sec": 2e8}]})");
  EXPECT_EQ(report_cli::run({"check-bench", bench_path}, out, err), 0);
  EXPECT_EQ(report_cli::run({"check-bench", bench_path, "--min-dispatch-speedup=1.5"},
                            out, err), 1);
  EXPECT_EQ(report_cli::run({"check-bench", bench_path, "--min-cast-speedup=1.5"}, out, err),
            2);
  EXPECT_EQ(report_cli::run({"check-bench", bench_path, "--min-gemm-speedup=2.0"},
                            out, err), 2);
  const std::string kernels_path =
      write_temp("fp8q_cli_kernels.json", std::string("{") + kKernelRows + "}");
  EXPECT_EQ(report_cli::run({"check-bench", kernels_path, "--min-dispatch-speedup=2.0"},
                            out, err), 0);
  EXPECT_EQ(report_cli::run({"check-bench", kernels_path, "--min-dispatch-speedup=7.5"},
                            out, err), 1);

  // diff-bench wires through to the regression gate.
  EXPECT_EQ(report_cli::run({"diff-bench", bench_path, bench_path}, out, err), 0);

  for (const auto& p :
       {report_path, drifted_path, trace_path, junk_path, bench_path, kernels_path}) {
    std::remove(p.c_str());
  }
}

}  // namespace
}  // namespace fp8q
