// Structured run reports (src/obs/report.h): JSON round-trip through the
// io/serialize reader, ScopedStage collection, and env-gated emission.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "io/serialize.h"
#include "obs/counters.h"
#include "obs/report.h"

namespace fp8q {
namespace {

struct ReportGuard {
  ~ReportGuard() {
    set_active_report(nullptr);
    set_counters_enabled(false);
    counters_reset();
    ::unsetenv("FP8Q_REPORT");
  }
};

RunReport sample_report() {
  RunReport r;
  r.tool = "unit-test";
  r.num_threads = 3;
  r.isa = "native:avx2";

  StageReport stage;
  stage.name = "phase \"one\"\nwith newline";  // exercises escaping
  stage.wall_ms = 12.625;
  stage.counters.counts[static_cast<int>(ObsFormat::kE4M3)]
                       [static_cast<int>(ObsEvent::kSaturated)] = 42;
  r.stages.push_back(stage);

  AccuracyRecord rec;
  rec.workload = "resnet50-ish";
  rec.domain = "CV";
  rec.config = "E4M3/static";
  rec.fp32_accuracy = 0.7615;
  rec.quant_accuracy = 0.7592;
  rec.model_size_mb = 97.5;
  r.records.push_back(rec);

  r.counters.counts[static_cast<int>(ObsFormat::kE5M2)]
                   [static_cast<int>(ObsEvent::kQuantized)] = 123456789;
  r.spans_dropped = 2;

  SpanRecord span;
  span.name = "qgraph/forward";
  span.start_ns = 1000;
  span.duration_ns = 2500;
  span.thread_id = 1;
  span.id = 7;
  span.parent = 3;
  r.spans.push_back(span);
  return r;
}

TEST(Report, JsonRoundTripsThroughSerializeReader) {
  const RunReport original = sample_report();
  std::istringstream in(original.to_json());
  const RunReport parsed = report_from_json(in);

  EXPECT_EQ(parsed.tool, original.tool);
  EXPECT_EQ(parsed.num_threads, original.num_threads);
  EXPECT_EQ(parsed.isa, original.isa);
  EXPECT_TRUE(parsed.counters == original.counters);
  EXPECT_EQ(parsed.spans_dropped, original.spans_dropped);

  ASSERT_EQ(parsed.stages.size(), 1u);
  EXPECT_EQ(parsed.stages[0].name, original.stages[0].name);
  EXPECT_EQ(parsed.stages[0].wall_ms, original.stages[0].wall_ms);
  EXPECT_TRUE(parsed.stages[0].counters == original.stages[0].counters);

  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].workload, original.records[0].workload);
  EXPECT_EQ(parsed.records[0].domain, original.records[0].domain);
  EXPECT_EQ(parsed.records[0].config, original.records[0].config);
  EXPECT_EQ(parsed.records[0].fp32_accuracy, original.records[0].fp32_accuracy);
  EXPECT_EQ(parsed.records[0].quant_accuracy, original.records[0].quant_accuracy);
  EXPECT_EQ(parsed.records[0].model_size_mb, original.records[0].model_size_mb);

  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].name, original.spans[0].name);
  EXPECT_EQ(parsed.spans[0].start_ns, original.spans[0].start_ns);
  EXPECT_EQ(parsed.spans[0].duration_ns, original.spans[0].duration_ns);
  EXPECT_EQ(parsed.spans[0].thread_id, original.spans[0].thread_id);
  EXPECT_EQ(parsed.spans[0].id, original.spans[0].id);
  EXPECT_EQ(parsed.spans[0].parent, original.spans[0].parent);
}

TEST(Report, V3MemoryHistogramAndStageAllocBlocksRoundTrip) {
  RunReport original = sample_report();
  original.stages[0].alloc_bytes = 4096;
  original.stages[0].allocs = 3;
  original.memory.peak_rss_bytes = 123456789;
  original.memory.alloc_bytes = 777;
  original.memory.allocs = 9;

  NamedHistogram nh;
  nh.name = "cast_mag/e4m3";
  LocalHistogram local;
  local.record(0.5);
  local.record(7.25);
  local.record(7.25);
  nh.hist = local.snap;
  original.histograms.push_back(nh);

  std::istringstream in(original.to_json());
  const RunReport parsed = report_from_json(in);

  ASSERT_EQ(parsed.stages.size(), 1u);
  EXPECT_EQ(parsed.stages[0].alloc_bytes, 4096u);
  EXPECT_EQ(parsed.stages[0].allocs, 3u);
  EXPECT_EQ(parsed.memory.peak_rss_bytes, 123456789u);
  EXPECT_EQ(parsed.memory.alloc_bytes, 777u);
  EXPECT_EQ(parsed.memory.allocs, 9u);

  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].name, "cast_mag/e4m3");
  // Bitwise: the sparse bucket encoding must rebuild the exact counts,
  // total and min/max, so every quantile matches too.
  EXPECT_TRUE(parsed.histograms[0].hist == nh.hist);
  EXPECT_EQ(parsed.histograms[0].hist.quantile(0.5), nh.hist.quantile(0.5));
}

TEST(Report, PreV3ReportsDefaultTheNewBlocks) {
  // A v1 document (no memory/histograms/stage alloc fields) must load with
  // the new blocks defaulted, not throw.
  std::istringstream in(
      R"({"fp8q_report_version": 1, "tool": "old", "num_threads": 2,
          "stages": [{"name": "s", "wall_ms": 1.5}]})");
  const RunReport parsed = report_from_json(in);
  EXPECT_EQ(parsed.tool, "old");
  EXPECT_EQ(parsed.memory.peak_rss_bytes, 0u);
  EXPECT_EQ(parsed.memory.alloc_bytes, 0u);
  EXPECT_TRUE(parsed.histograms.empty());
  ASSERT_EQ(parsed.stages.size(), 1u);
  EXPECT_EQ(parsed.stages[0].alloc_bytes, 0u);
}

TEST(Report, V4CacheBlocksAreIgnored) {
  // v2..v4 documents carry a "weight_cache" block and a "cache_decode"
  // kernel path, counters of the quantized-weight cache v5 removed. They
  // must still load, with both dropped and every other field intact.
  std::istringstream in(
      R"({"fp8q_report_version": 4, "tool": "old", "num_threads": 2,
          "isa": "native:avx2",
          "weight_cache": {"hit": 11, "miss": 3, "evict": 0, "bypass": 1},
          "kernel_paths": {"linear_packed": 5, "conv_fp32": 2, "cache_decode": 7},
          "counters": {"e4m3": {"quantized": 9}}})");
  const RunReport parsed = report_from_json(in);
  EXPECT_EQ(parsed.tool, "old");
  EXPECT_EQ(parsed.isa, "native:avx2");
  EXPECT_EQ(parsed.counters.get(ObsFormat::kE4M3, ObsEvent::kQuantized), 9u);
  const std::string rewritten = parsed.to_json();
  EXPECT_EQ(rewritten.find("weight_cache"), std::string::npos);
  EXPECT_EQ(rewritten.find("cache_decode"), std::string::npos);
}

TEST(Report, V5KernelPathsAreIgnoredAndV6OmitsThem) {
  // v4..v5 documents carry a "kernel_paths" block, packed-vs-FP32 op
  // forward counts of the packed kernels v6 removed. They must still load,
  // with the block dropped and every other field intact.
  std::istringstream in(
      R"({"fp8q_report_version": 5, "tool": "old", "num_threads": 2,
          "isa": "native:avx2",
          "counters": {"e5m2": {"saturated": 4}},
          "kernel_paths": {"linear_packed": 5, "linear_fp32": 1, "conv_packed": 2,
                           "conv_fp32": 0, "matmul_packed": 0, "matmul_fp32": 3}})");
  const RunReport parsed = report_from_json(in);
  EXPECT_EQ(parsed.tool, "old");
  EXPECT_EQ(parsed.isa, "native:avx2");
  EXPECT_EQ(parsed.counters.get(ObsFormat::kE5M2, ObsEvent::kSaturated), 4u);

  // Re-written, the report is v6 and carries no kernel path counts.
  EXPECT_EQ(kReportVersion, 6);
  const std::string v6 = parsed.to_json();
  EXPECT_NE(v6.find("\"fp8q_report_version\": 6"), std::string::npos);
  EXPECT_EQ(v6.find("kernel_paths"), std::string::npos);
  EXPECT_EQ(v6.find("linear_packed"), std::string::npos);
}

TEST(Report, EmptyReportRoundTrips) {
  RunReport empty;
  std::istringstream in(empty.to_json());
  const RunReport parsed = report_from_json(in);
  EXPECT_TRUE(parsed.stages.empty());
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_TRUE(parsed.spans.empty());
  EXPECT_FALSE(parsed.counters.any());
}

TEST(Report, ScopedStageAppendsToActiveReport) {
  ReportGuard guard;
  set_counters_enabled(true);
  counters_reset();

  RunReport report;
  set_active_report(&report);
  {
    ScopedStage stage("stage-a");
    counter_add(ObsFormat::kE4M3, ObsEvent::kSaturated, 5);
  }
  set_active_report(nullptr);

  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.stages[0].name, "stage-a");
  EXPECT_GE(report.stages[0].wall_ms, 0.0);
  EXPECT_EQ(report.stages[0].counters.get(ObsFormat::kE4M3, ObsEvent::kSaturated), 5u);
}

TEST(Report, StageAppendsAreNoopsWithoutActiveReport) {
  ReportGuard guard;
  set_active_report(nullptr);
  report_add_stage("orphan", 1.0);
  { ScopedStage stage("also-orphan"); }
  // Nothing to observe beyond "does not crash"; a later active report must
  // not receive stages from before it was published.
  RunReport report;
  set_active_report(&report);
  set_active_report(nullptr);
  EXPECT_TRUE(report.stages.empty());
}

TEST(Report, WriteIsGatedOnEnvironment) {
  ReportGuard guard;
  ::unsetenv("FP8Q_REPORT");
  RunReport report = sample_report();
  EXPECT_EQ(report_env_path(), nullptr);
  EXPECT_FALSE(write_report_if_requested(report));

  const std::string path = testing::TempDir() + "fp8q_report_test.json";
  ::setenv("FP8Q_REPORT", path.c_str(), 1);
  EXPECT_TRUE(write_report_if_requested(report));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const RunReport parsed = report_from_json(in);
  EXPECT_EQ(parsed.tool, "unit-test");
  // write_report_if_requested refreshed these from the live buffers.
  EXPECT_TRUE(parsed.counters == counters_snapshot());
  std::remove(path.c_str());
}

TEST(Report, MalformedJsonThrows) {
  std::istringstream truncated("{\"fp8q_report_version\": 1,");
  EXPECT_THROW((void)report_from_json(truncated), std::runtime_error);

  std::istringstream not_object("[1, 2, 3]");
  EXPECT_THROW((void)report_from_json(not_object), std::runtime_error);

  std::istringstream wrong_version("{\"fp8q_report_version\": 99}");
  EXPECT_THROW((void)report_from_json(wrong_version), std::runtime_error);

  std::istringstream no_version("{\"tool\": \"x\"}");
  EXPECT_THROW((void)report_from_json(no_version), std::runtime_error);
}

TEST(Report, FutureVersionIsRejectedWithAClearError) {
  // A report written by a newer build (e.g. an fp8qd daemon ahead of this
  // CLI) must fail loudly -- unknown future fields would otherwise be
  // silently dropped -- and the error must say the document is *newer*,
  // not just "unsupported".
  std::istringstream future("{\"fp8q_report_version\": 99, \"tool\": \"fp8qd eval\"}");
  try {
    (void)report_from_json(future);
    FAIL() << "future schema version must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("newer"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fp8q
