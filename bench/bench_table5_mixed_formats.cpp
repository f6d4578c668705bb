// Reproduces paper Table 5: single vs mixed FP8 formats on NLP workloads.
// The mixed scheme (E4M3 activations + E3M4 weights) should match or beat
// every single format.
#include <cstdio>

#include "workloads/registry.h"

#include "bench_report.h"

int main() {
  fp8q::BenchReport bench_report("bench_table5_mixed_formats");
  using namespace fp8q;
  const auto suite = build_suite();
  const EvalProtocol protocol;

  // Four NLP workloads standing in for the paper's Bert-Base/MRPC,
  // Bert-Large/RTE, Funnel/MRPC and Longformer/MRPC rows. The "funnel" row
  // uses the range-extreme longformer variant, reproducing the paper's
  // catastrophic E3M4 failure (0.3704 vs FP32 0.9225).
  const char* names[] = {"distilbert-mrpc-ish", "bert-large-cola-ish",
                         "nlp/longformer-ish-1", "nlp/longformer-ish-0"};
  const char* paper_rows[] = {
      "Bert-Base/MRPC   0.9069 | 0.9040 0.9050 0.9050 | 0.9069",
      "Bert-Large/RTE   0.7256 | 0.6968 0.7329 0.6931 | 0.7365",
      "Funnel/MRPC      0.9225 | 0.9215 0.9207 0.3704 | 0.9233",
      "Longformer/MRPC  0.9146 | 0.8374 0.9113 0.9084 | 0.9143",
  };

  std::vector<Workload> workloads;
  for (const char* name : names) workloads.push_back(find_workload(suite, name));
  const auto recs = evaluate_suite(
      workloads,
      {standard_fp8_scheme(DType::kE5M2), standard_fp8_scheme(DType::kE4M3),
       standard_fp8_scheme(DType::kE3M4), mixed_fp8_scheme()},
      protocol);

  std::printf("Table 5: single vs mixed FP8 formats (measured)\n\n");
  std::printf("%-22s %8s | %8s %8s %8s | %8s\n", "workload", "FP32", "E5M2", "E4M3",
              "E3M4", "Mixed");
  for (size_t i = 0; i < workloads.size(); ++i) {
    const AccuracyRecord* r = &recs[4 * i];
    std::printf("%-22s %8.4f | %8.4f %8.4f %8.4f | %8.4f\n", names[i], r[0].fp32_accuracy,
                r[0].quant_accuracy, r[1].quant_accuracy, r[2].quant_accuracy,
                r[3].quant_accuracy);
    std::printf("  paper: %s\n", paper_rows[i]);
  }
  std::printf("\npaper shape: mixed E4M3-act/E3M4-weight matches or beats every single\n"
              "format; E3M4 collapses on the range-extreme (Funnel-like) row.\n");
  return 0;
}
