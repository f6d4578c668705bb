// End-to-end format-quality ordering on a plain (outlier-free) model:
// more mantissa bits means higher output fidelity. This is the
// precision-bound regime of paper Figure 3 where E3M4 > E4M3 > E5M2.
#include <gtest/gtest.h>

#include "metrics/metrics.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

double model_sqnr(const Graph& g, const Tensor& ref, const Tensor& x,
                  const std::vector<Tensor>& calib, const SchemeConfig& scheme) {
  ModelQuantConfig cfg;
  cfg.scheme = scheme;
  Graph q = g.clone();
  QuantizedGraph qg(&q, cfg);
  qg.prepare(std::span<const Tensor>(calib));
  const Tensor got = qg.forward(x);
  return sqnr_db(ref.flat(), got.flat());
}

TEST(FormatOrdering, MantissaWinsOnCleanMlp) {
  MlpSpec spec;
  spec.in_dim = 32;
  spec.hidden = 64;
  spec.layers = 3;
  spec.out_dim = 8;
  Graph g = make_mlp_model(spec);
  Rng rng(3);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(randn(rng, {32, 32}));
  Tensor x = randn(rng, {64, 32});
  const Tensor ref = g.forward(x);

  const double e5 = model_sqnr(g, ref, x, calib, standard_fp8_scheme(DType::kE5M2));
  const double e4 = model_sqnr(g, ref, x, calib, standard_fp8_scheme(DType::kE4M3));
  const double e3 = model_sqnr(g, ref, x, calib, standard_fp8_scheme(DType::kE3M4));
  // Strict ordering with comfortable gaps (~5-6 dB per mantissa bit).
  EXPECT_GT(e4, e5 + 2.0);
  EXPECT_GT(e3, e4 + 2.0);
}

TEST(FormatOrdering, MixedSitsBetweenItsComponents) {
  MlpSpec spec;
  spec.in_dim = 32;
  spec.hidden = 48;
  spec.layers = 2;
  spec.out_dim = 8;
  Graph g = make_mlp_model(spec);
  Rng rng(7);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(randn(rng, {32, 32}));
  Tensor x = randn(rng, {64, 32});
  const Tensor ref = g.forward(x);

  const double e4 = model_sqnr(g, ref, x, calib, standard_fp8_scheme(DType::kE4M3));
  const double e3 = model_sqnr(g, ref, x, calib, standard_fp8_scheme(DType::kE3M4));
  const double mixed = model_sqnr(g, ref, x, calib, mixed_fp8_scheme());
  EXPECT_GT(mixed, e4 - 1.0);  // E3M4 weights help over pure E4M3
  EXPECT_LT(mixed, e3 + 3.0);  // but activations stay E4M3
}

}  // namespace
}  // namespace fp8q
