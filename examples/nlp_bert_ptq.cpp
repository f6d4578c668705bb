// NLP PTQ walkthrough: quantizing a BERT-class encoder with the paper's
// full NLP recipe -- SmoothQuant preprocessing, per-channel weights,
// static per-tensor activations, then the extended options (mixed formats,
// dynamic quantization) when accuracy demands it.
#include <cstdio>

#include "core/fp8q.h"

using namespace fp8q;

int main() {
  // An encoder with LLM-style activation outliers (the hard case).
  TransformerSpec spec;
  spec.dim = 48;
  spec.seq = 8;
  spec.layers = 2;
  spec.classes = 8;
  spec.input_proj = true;
  spec.outlier_channel_fraction = 0.06f;
  spec.outlier_gamma_gain = 20.0f;
  Graph bert = make_transformer_encoder(spec);

  Rng rng(7);
  auto make_batch = [&](int n) {
    Tensor x = randn(rng, {n, 8, 48});
    // A few positions carry outlier tokens.
    for (float& v : x.flat()) {
      if (rng.uniform01() < 0.01) v *= 60.0f;
    }
    return x;
  };
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(make_batch(32));
  Tensor input = make_batch(64);
  const Tensor reference = bert.forward(input);

  std::printf("BERT-class encoder PTQ (activation outliers present)\n\n");
  std::printf("%-22s %12s %14s\n", "recipe", "SQNR (dB)", "top1 agreement");

  auto report = [&](const char* name, const SchemeConfig& scheme) {
    ModelQuantConfig cfg;
    cfg.scheme = scheme;
    cfg.scheme.smoothquant = true;  // paper: enabled on all NLP models
    Graph copy = bert.clone();      // prepare() rewrites the weights
    QuantizedGraph qg(&copy, cfg);
    qg.prepare(std::span<const Tensor>(calib));
    const Tensor out = qg.forward(input);
    std::printf("%-22s %12.2f %14.4f\n", name, sqnr_db(reference.flat(), out.flat()),
                top1_agreement(reference, out));
  };

  report("E4M3 static", standard_fp8_scheme(DType::kE4M3));
  report("E4M3 dynamic", standard_fp8_scheme(DType::kE4M3, true));
  report("E3M4 static", standard_fp8_scheme(DType::kE3M4));
  report("mixed E4M3/E3M4", mixed_fp8_scheme());
  report("INT8 dynamic", int8_scheme(true));
  {
    SchemeConfig ext = standard_fp8_scheme(DType::kE4M3);
    ext.quantize_extended_ops = true;  // + LayerNorm / Add / Mul coverage
    report("E4M3 + extended ops", ext);
  }

  std::printf("\nThe mixed recipe (E4M3 activations for range, E3M4 weights for\n"
              "precision) is the paper's best NLP configuration (Table 5).\n");
  return 0;
}
