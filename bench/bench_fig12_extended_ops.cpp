// Reproduces paper Figure 12 (Appendix A.4): accuracy impact of the
// extended quantization recipes -- expanding operator coverage to
// LayerNorm / Add / Mul (and BatchMatMul, already in the standard set) --
// across NLP workloads and formats.
#include <cstdio>

#include "workloads/registry.h"

#include "bench_report.h"

int main() {
  fp8q::BenchReport bench_report("bench_fig12_extended_ops");
  using namespace fp8q;
  const auto suite = build_suite();
  EvalProtocol protocol;
  protocol.eval_batches = 6;


  // NLP workloads with LayerNorm/Add/Mul content.
  std::vector<Workload> nlp;
  for (const auto& w : suite) {
    if (w.domain == "NLP" && (w.family == "bert-ish" || w.family == "marian-ish" ||
                              w.family == "longformer-ish")) {
      nlp.push_back(w);
    }
  }
  if (nlp.size() > 6) nlp.resize(6);

  std::printf("Figure 12: extended operator coverage (LayerNorm/Add/Mul) on %zu NLP\n"
              "workloads -- mean relative loss and pass rate per format\n\n",
              nlp.size());
  std::printf("%-14s %-10s | %12s %10s | %12s %10s\n", "format", "approach",
              "std loss", "std pass", "ext loss", "ext pass");

  // Per (format, approach) row: the standard recipe, then extended ops.
  std::vector<SchemeConfig> schemes;
  for (DType fmt : {DType::kE5M2, DType::kE4M3, DType::kE3M4}) {
    for (bool dynamic : {false, true}) {
      if (fmt == DType::kE5M2 && dynamic) continue;
      schemes.push_back(standard_fp8_scheme(fmt, dynamic));
      schemes.push_back(schemes.back());
      schemes.back().quantize_extended_ops = true;
    }
  }
  const auto recs = evaluate_suite(nlp, schemes, protocol);
  for (size_t row = 0; row < schemes.size(); row += 2) {
    std::vector<AccuracyRecord> std_recs;
    std::vector<AccuracyRecord> ext_recs;
    for (size_t i = row; i < recs.size(); i += schemes.size()) {
      std_recs.push_back(recs[i]);
      ext_recs.push_back(recs[i + 1]);
    }
    const auto std_sum = summarize_losses(std_recs);
    const auto ext_sum = summarize_losses(ext_recs);
    std::printf("%-14s %-10s | %11.2f%% %9.1f%% | %11.2f%% %9.1f%%\n",
                std::string(to_string(schemes[row].act_dtype)).c_str(),
                schemes[row].dynamic_activations ? "dynamic" : "static", 100.0 * std_sum.mean,
                pass_rate(std_recs), 100.0 * ext_sum.mean, pass_rate(ext_recs));
  }
  std::printf("\npaper shape: FP8 formats absorb the expanded memory-op coverage with\n"
              "little extra loss; E4M3 shows the best accuracy and smallest\n"
              "variability across the extended recipes (Appendix A.4).\n");
  return 0;
}
