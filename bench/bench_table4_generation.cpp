// Reproduces paper Table 4 / Appendix A.3: text-generation quality of a
// Bloom-class decoder LM under each data format, beam search size 4.
//
// The paper's finding is qualitative: INT8 output degenerates into
// repetition ("She saw many strange... She saw many strange...") while
// FP8 formats stay close to the FP32 continuation. We quantify exactly
// that with repeated-4-gram fraction, distinct-2 and token agreement
// against the FP32 generation.
#include <cstdio>

#include "models/generation.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"
#include "workloads/registry.h"

#include "bench_report.h"

using namespace fp8q;

int main() {
  fp8q::BenchReport bench_report("bench_table4_generation");
  // Bloom-like decoder with token-level embedding outliers reaching the
  // embedding projection -- the regime where INT8's grid is stretched.
  DecoderLmSpec spec;
  spec.vocab = 48;
  spec.dim = 48;
  spec.layers = 2;
  spec.embed_proj = true;
  spec.outlier_channel_fraction = 0.06f;
  spec.outlier_gamma_gain = 5.0f;
  spec.embedding_outlier_fraction = 0.04f;
  spec.embedding_outlier_gain = 300.0f;
  spec.seed = 77;
  Graph lm = make_decoder_lm(spec);

  // Prompt: "32 input tokens" scaled to our sequence budget.
  Rng rng(123);
  std::vector<int> prompt;
  for (int i = 0; i < 8; ++i) prompt.push_back(static_cast<int>(rng.randint(0, spec.vocab - 1)));
  const int steps = 32;
  const int beam = 4;

  // Calibration set for the static schemes.
  std::vector<std::vector<Tensor>> calib;
  for (int b = 0; b < 4; ++b) {
    Tensor ids({8, 10});
    for (float& v : ids.flat()) v = static_cast<float>(rng.randint(0, spec.vocab - 1));
    Tensor pos({8, 10});
    for (std::int64_t r = 0; r < 8; ++r) {
      for (std::int64_t s = 0; s < 10; ++s) pos.at({r, s}) = static_cast<float>(s);
    }
    std::vector<Tensor> one;
    one.push_back(std::move(ids));
    one.push_back(std::move(pos));
    calib.push_back(std::move(one));
  }

  const auto fp32_tokens = beam_generate(make_lm_forward(lm), prompt, steps, beam);

  std::printf("Table 4: generation quality, beam search size %d, %d new tokens\n\n", beam,
              steps);
  std::printf("%-14s | %14s %12s %14s\n", "config", "rep-4gram", "distinct-2",
              "match-vs-FP32");
  std::printf("%-14s | %14.3f %12.3f %14s\n", "FP32",
              repeated_ngram_fraction(fp32_tokens, 4), distinct_n(fp32_tokens, 2), "1.000");

  struct Config {
    const char* name;
    SchemeConfig scheme;
  };
  std::vector<Config> configs = {
      {"E5M2/direct", standard_fp8_scheme(DType::kE5M2)},
      {"E4M3/static", standard_fp8_scheme(DType::kE4M3, false)},
      {"E4M3/dynamic", standard_fp8_scheme(DType::kE4M3, true)},
      {"E3M4/static", standard_fp8_scheme(DType::kE3M4, false)},
      {"E3M4/dynamic", standard_fp8_scheme(DType::kE3M4, true)},
      {"FP8 mixed", mixed_fp8_scheme()},
      {"INT8/dynamic", int8_scheme(true)},
  };
  for (auto& c : configs) {
    ModelQuantConfig cfg;
    cfg.scheme = c.scheme;
    cfg.scheme.smoothquant = true;  // NLP default
    Graph copy = lm.clone();        // prepare() rewrites the weights
    QuantizedGraph qg(&copy, cfg);
    qg.prepare(std::span<const std::vector<Tensor>>(calib));
    const auto tokens = beam_generate(make_lm_forward(qg), prompt, steps, beam);
    std::printf("%-14s | %14.3f %12.3f %14.3f\n", c.name,
                repeated_ngram_fraction(tokens, 4), distinct_n(tokens, 2),
                token_agreement(fp32_tokens, tokens));
    std::fflush(stdout);
  }
  std::printf("\npaper shape: INT8 generation degenerates (high repetition, low\n"
              "diversity); E3M4/E4M3 stay close to the FP32 continuation (Table 4,\n"
              "Appendix A.3).\n");
  return 0;
}
