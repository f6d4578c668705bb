// Reproduces paper Table 2: workload pass rate (<= 1% relative accuracy
// loss vs FP32) for every study configuration over the 75-workload suite.
//
//   Row order matches the paper: E5M2 direct, E4M3 static/dynamic,
//   E3M4 static/dynamic, INT8 (static CV / dynamic NLP).
//
// Usage: bench_table2_passrate [--quick] [--dump]
//   --quick  evaluate a 15-workload subset (CI-speed smoke run)
//   --dump   also print the per-workload accuracy records
//
// The sweep fans out over the global thread pool (FP8Q_NUM_THREADS /
// set_num_threads, see docs/THREADING.md); records come back in workload
// order so the output is identical at any thread count.
//
// Observability (docs/OBSERVABILITY.md): FP8Q_REPORT=<path> writes a
// structured run report (per-phase timings, quantization-event counters,
// all accuracy records); FP8Q_TRACE=1 additionally captures spans.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "obs/report.h"
#include "workloads/registry.h"

#include "bench_report.h"

namespace {

struct Row {
  const char* config;
  const char* approach;
  double paper_cv;
  double paper_nlp;
  double paper_all;
};

constexpr Row kPaperRows[] = {
    {"E5M2/direct", "Direct", 55.26, 78.42, 74.89},
    {"E4M3/static", "Static", 73.68, 96.32, 92.64},
    {"E4M3/dynamic", "Dynamic", 71.05, 92.11, 88.74},
    {"E3M4/static", "Static", 78.95, 92.11, 90.04},
    {"E3M4/dynamic", "Dynamic", 78.95, 92.11, 90.04},
    {"INT8", "Static CV Dynamic NLP", 57.89, 67.65, 65.87},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fp8q;
  bool quick = false;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--dump") == 0) dump = true;
  }

  auto suite = build_suite();
  if (quick) suite = quick_suite(suite);

  BenchReport bench_report("bench_table2_passrate");

  // All six rows, fanned out over (workload, scheme) pairs: the five FP8
  // configurations, then INT8 (static on CV, dynamic on NLP), workload-major.
  std::vector<AccuracyRecord> records;
  {
    ScopedStage stage("suite");
    records = evaluate_table2(suite, table2_fp8_schemes(), {}, [&](int done) {
      std::fprintf(stderr, "\r[table2] %d/%zu evaluations (%d threads)", done,
                   6 * suite.size(), num_threads());
    });
  }
  std::fprintf(stderr, "\n");

  if (dump) {
    std::printf("%-26s %-6s %-14s %8s %8s %8s\n", "workload", "domain", "config", "fp32",
                "quant", "loss%");
    for (const auto& r : records) {
      std::printf("%-26s %-6s %-14s %8.4f %8.4f %8.2f\n", r.workload.c_str(),
                  r.domain.c_str(), r.config.c_str(), r.fp32_accuracy, r.quant_accuracy,
                  100.0 * r.relative_loss());
    }
    std::printf("\n");
  }

  std::printf("Table 2: Workload Pass Rate (measured vs paper)\n");
  std::printf("%-14s %-22s | %8s %8s %8s | %8s %8s %8s\n", "Data Type", "Approach",
              "CV", "NLP", "All", "CV*", "NLP*", "All*");
  std::printf("%.*s\n", 110,
              "--------------------------------------------------------------------------"
              "------------------------------------");
  for (const auto& row : kPaperRows) {
    const auto sel = filter_config(records, row.config);
    const double cv = pass_rate(filter_domain(sel, "CV"));
    const double nlp = pass_rate(filter_domain(sel, "NLP"));
    const double all = pass_rate(sel);
    std::printf("%-14s %-22s | %7.2f%% %7.2f%% %7.2f%% | %7.2f%% %7.2f%% %7.2f%%\n",
                row.config, row.approach, cv, nlp, all, row.paper_cv, row.paper_nlp,
                row.paper_all);
  }
  std::printf("(* = paper-reported values; shape to match: FP8 > INT8 overall,\n"
              " E4M3 best on NLP, E3M4 best on CV, E5M2 weakest FP8.)\n");

  bench_report.report.records = records;
  return 0;
}
