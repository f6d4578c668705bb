// Ablation: per-tensor static vs per-tensor dynamic vs per-token dynamic
// activation scaling -- the paper's section 3.1 notes that per-channel /
// per-token activation schemes "may require special kernel implementations
// ... hence they are not included in our study"; this bench quantifies
// what that exclusion costs on outlier-token activations.
#include <cstdio>

#include "metrics/metrics.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"
#include "workloads/registry.h"

#include "bench_report.h"

using namespace fp8q;

int main() {
  fp8q::BenchReport bench_report("bench_ablation_pertoken");
  TransformerSpec spec;
  spec.dim = 48;
  spec.seq = 8;
  spec.layers = 2;
  spec.input_proj = true;
  spec.seed = 9;
  Graph g = make_transformer_encoder(spec);

  Rng rng(21);
  auto make_batch = [&](int n) {
    Tensor x = randn(rng, {n, 8, 48});
    for (float& v : x.flat()) {
      if (rng.uniform01() < 0.01) v *= 120.0f;  // INT8-killer element spikes
    }
    return x;
  };
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(make_batch(32));
  Tensor x = make_batch(64);
  const Tensor ref = g.forward(x);

  std::printf("Activation-scaling ablation on an outlier-token encoder (SQNR dB)\n\n");
  std::printf("%-24s %10s %10s %10s %10s\n", "scheme", "E5M2", "E4M3", "E3M4", "INT8");

  auto row = [&](const char* name, bool dynamic, bool per_token) {
    std::printf("%-24s", name);
    for (DType dt : {DType::kE5M2, DType::kE4M3, DType::kE3M4, DType::kINT8}) {
      ModelQuantConfig cfg;
      cfg.scheme = dt == DType::kINT8 ? int8_scheme(dynamic)
                                      : standard_fp8_scheme(dt, dynamic);
      cfg.scheme.per_token_activations = per_token;
      cfg.scheme.smoothquant = true;
      Graph copy = g.clone();  // prepare() rewrites the weights
      QuantizedGraph qg(&copy, cfg);
      qg.prepare(std::span<const Tensor>(calib));
      const Tensor got = qg.forward(x);
      std::printf(" %10.2f", sqnr_db(ref.flat(), got.flat()));
    }
    std::printf("\n");
  };
  row("per-tensor static", false, false);
  row("per-tensor dynamic", true, false);
  row("per-token dynamic", true, true);

  std::printf("\nshape: per-token scales rescue INT8 on token-outlier activations (the\n"
              "rescue the paper forgoes to keep standard kernels), while the FP8\n"
              "formats barely need it -- their exponent already absorbs the range.\n");
  return 0;
}
