// Reproduces the paper's section 4.3.1 study: quantizing the first and last
// operators of convolutional networks. The paper reports pass-rate drops of
// ~25% (E5M2) and ~15% (E4M3) while E3M4 keeps ~70% with first/last
// quantized, and recommends exposing the exception as a tuning option.
#include <cstdio>

#include "workloads/registry.h"

#include "bench_report.h"

int main() {
  fp8q::BenchReport bench_report("bench_table_firstlast");
  using namespace fp8q;
  const auto suite = build_suite();
  EvalProtocol protocol;
  protocol.eval_batches = 6;


  // All convolutional CV workloads.
  std::vector<Workload> cnns;
  for (const auto& w : suite) {
    if (w.is_cnn && w.metric == MetricKind::kTop1) cnns.push_back(w);
  }
  if (cnns.size() > 6) cnns.resize(6);

  std::printf("Section 4.3.1: first/last operator quantization on %zu conv nets\n\n",
              cnns.size());
  std::printf("%-8s | %16s %16s %10s | %s\n", "format", "skip first/last",
              "quantize all", "drop", "paper drop");
  const char* paper_drop[] = {"-25%", "-15%", "keeps ~70%"};
  // Per format: first/last skipped, then quantized.
  std::vector<SchemeConfig> schemes;
  for (DType fmt : {DType::kE5M2, DType::kE4M3, DType::kE3M4}) {
    schemes.push_back(standard_fp8_scheme(fmt));
    schemes.back().skip_first_last = true;
    schemes.push_back(schemes.back());
    schemes.back().skip_first_last = false;
  }
  const auto recs = evaluate_suite(cnns, schemes, protocol);
  for (size_t row = 0; row < schemes.size(); row += 2) {
    std::vector<AccuracyRecord> skip_recs;
    std::vector<AccuracyRecord> all_recs;
    for (size_t i = row; i < recs.size(); i += schemes.size()) {
      skip_recs.push_back(recs[i]);
      all_recs.push_back(recs[i + 1]);
    }
    const double skip_rate = pass_rate(skip_recs);
    const double all_rate = pass_rate(all_recs);
    std::printf("%-8s | %15.2f%% %15.2f%% %9.2f%% | %s\n",
                std::string(to_string(schemes[row].act_dtype)).c_str(), skip_rate, all_rate,
                all_rate - skip_rate, paper_drop[row / 2]);
  }
  std::printf("\npaper shape: quantizing first/last hurts E5M2 most, E4M3 moderately,\n"
              "E3M4 least (its denser grid handles the sensitive layers).\n");
  return 0;
}
