// Reproduces paper Figure 4: box-plot statistics of the relative accuracy
// loss per data format, split by domain. INT8 shows far higher variability
// on CV (EfficientNet/MobileNetV3/ViT-class failures) than E4M3/E3M4.
//
// Usage: bench_fig4_variability [--full]   (default: quick_suite, every 5th workload)
#include <cstdio>
#include <cstring>

#include "workloads/registry.h"

#include "bench_report.h"

int main(int argc, char** argv) {
  fp8q::BenchReport bench_report("bench_fig4_variability");
  using namespace fp8q;
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  auto suite = build_suite();
  if (!full) suite = quick_suite(suite);

  EvalProtocol protocol;
  protocol.eval_batches = 6;  // distribution shape needs less resolution

  const auto records = evaluate_table2(
      suite, {standard_fp8_scheme(DType::kE4M3), standard_fp8_scheme(DType::kE3M4),
              standard_fp8_scheme(DType::kE5M2)},
      protocol);

  std::printf("Figure 4: relative accuracy-loss distribution per format (%%)\n\n");
  std::printf("%-8s %-6s | %8s %8s %8s %8s %8s | %8s %9s\n", "format", "domain", "min",
              "q1", "median", "q3", "max", "mean", "outliers");
  for (const char* domain : {"CV", "NLP"}) {
    for (const char* config :
         {"E4M3/static", "E3M4/static", "E5M2/direct", "INT8"}) {
      const auto sel = filter_domain(filter_config(records, config), domain);
      const auto s = summarize_losses(sel);
      std::printf("%-8.7s %-6s | %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f %6d/%-2d\n",
                  config, domain, 100 * s.min, 100 * s.q1, 100 * s.median, 100 * s.q3,
                  100 * s.max, 100 * s.mean, s.outliers, s.count);
    }
  }
  std::printf("\npaper shape: INT8 has much wider spread (and more outliers) on CV than\n"
              "E4M3/E3M4; E4M3 and E3M4 are tight around zero on both domains.\n");
  return 0;
}
