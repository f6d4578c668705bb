// LLM generation under quantization: a Bloom-class decoder generating with
// beam search (size 4, as in paper Table 4) at FP32, FP8 and INT8.
#include <cstdio>

#include "core/fp8q.h"

using namespace fp8q;

namespace {

void print_tokens(const char* label, const std::vector<int>& tokens, size_t prompt_len) {
  std::printf("%-14s:", label);
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::printf(i == prompt_len ? " |%3d" : " %3d", tokens[i]);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  DecoderLmSpec spec;
  spec.vocab = 48;
  spec.dim = 48;
  spec.layers = 2;
  spec.embed_proj = true;
  spec.embedding_outlier_fraction = 0.04f;
  spec.embedding_outlier_gain = 200.0f;  // rare-token outliers
  Graph lm = make_decoder_lm(spec);

  Rng rng(9);
  std::vector<int> prompt;
  for (int i = 0; i < 8; ++i) prompt.push_back(static_cast<int>(rng.randint(0, 47)));

  std::vector<std::vector<Tensor>> calib;
  for (int b = 0; b < 4; ++b) {
    Tensor ids({8, 12});
    for (float& v : ids.flat()) v = static_cast<float>(rng.randint(0, 47));
    Tensor pos({8, 12});
    for (std::int64_t r = 0; r < 8; ++r) {
      for (std::int64_t s = 0; s < 12; ++s) pos.at({r, s}) = static_cast<float>(s);
    }
    std::vector<Tensor> one;
    one.push_back(std::move(ids));
    one.push_back(std::move(pos));
    calib.push_back(std::move(one));
  }

  const int steps = 24;
  const auto fp32_out = beam_generate(make_lm_forward(lm), prompt, steps, 4);
  print_tokens("FP32", fp32_out, prompt.size());

  for (DType fmt : {DType::kE4M3, DType::kE3M4, DType::kE5M2, DType::kINT8}) {
    ModelQuantConfig cfg;
    cfg.scheme = fmt == DType::kINT8 ? int8_scheme(true) : standard_fp8_scheme(fmt);
    cfg.scheme.smoothquant = true;
    Graph copy = lm.clone();  // prepare() rewrites the weights
    QuantizedGraph qg(&copy, cfg);
    qg.prepare(std::span<const std::vector<Tensor>>(calib));
    const auto out = beam_generate(make_lm_forward(qg), prompt, steps, 4);
    print_tokens(cfg.scheme.label().c_str(), out, prompt.size());
    std::printf("    agreement=%.2f  repeated-4grams=%.2f  distinct-2=%.2f\n",
                token_agreement(fp32_out, out), repeated_ngram_fraction(out, 4),
                distinct_n(out, 2));
  }
  return 0;
}
