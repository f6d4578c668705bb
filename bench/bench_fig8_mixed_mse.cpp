// Reproduces paper Figure 8: output MSE of a BERT-style Linear operator
// under every (activation format x weight format) combination, showing the
// mixed-format sweet spot E4M3 activations + E3M4 weights (section 3.2).
#include <array>
#include <cstdio>

#include "metrics/metrics.h"
#include "nn/linear.h"
#include "quant/quantizer.h"
#include "tensor/rng.h"
#include "tensor/stats.h"

#include "bench_report.h"

using namespace fp8q;

int main() {
  fp8q::BenchReport bench_report("bench_fig8_mixed_mse");
  // BERT-base-like intermediate Linear: activations carry channel outliers
  // (range-bound), weights are normal (precision-bound) -- Figure 3.
  Rng rng(42);
  const std::int64_t rows = 2048;
  const std::int64_t in = 64;
  const std::int64_t out = 64;
  Tensor x = randn(rng, {rows, in});
  // Two extreme outliers (LLM-style, ~6000x the bulk). The range demand is
  // past E3M4's last subnormal (30 / 2^-10 ~ 4000:1), so E3M4's max-scaled
  // grid annihilates the energy-dominant bulk; E4M3's wider exponent keeps
  // the bulk in its normal range while still carrying the outliers. The
  // normal-distributed weights remain precision-bound and favour E3M4.
  for (int k = 0; k < 2; ++k) {
    const std::int64_t idx = rng.randint(0, x.numel() - 1);
    x[idx] = (k % 2 == 0 ? 1.0f : -1.0f) * rng.uniform(5800.0f, 6200.0f);
  }
  Tensor w = randn(rng, {out, in}, 0.0f, 0.15f);

  LinearOp ref_op(w, Tensor{});
  const Tensor ref = ref_op.forward(std::array{&x});

  const DType formats[] = {DType::kE5M2, DType::kE4M3, DType::kE3M4};
  std::printf("Figure 8: Linear output MSE, activation format x weight format\n\n");
  std::printf("%-12s", "act \\ wgt");
  for (DType wf : formats) std::printf(" %12s", std::string(to_string(wf)).c_str());
  std::printf("\n");

  double best = 1e300;
  DType best_a = DType::kFP32;
  DType best_w = DType::kFP32;
  for (DType af : formats) {
    std::printf("%-12s", std::string(to_string(af)).c_str());
    for (DType wf : formats) {
      Tensor xq = apply_quant(x, make_activation_params(af, absmax(x)));
      Tensor wq = apply_quant(w, make_weight_params(w, wf));
      LinearOp op(wq, Tensor{});
      const double m = mse(ref.flat(), op.forward(std::array{&xq}).flat());
      std::printf(" %12.4e", m);
      if (m < best) {
        best = m;
        best_a = af;
        best_w = wf;
      }
    }
    std::printf("\n");
  }
  std::printf("\nbest combination: %s activations + %s weights (MSE %.4e)\n",
              std::string(to_string(best_a)).c_str(),
              std::string(to_string(best_w)).c_str(), best);
  std::printf("paper shape: E4M3 activations + E3M4 weights minimizes the output MSE\n"
              "on outlier-activation / normal-weight tensors (section 3.2, Figure 8).\n");
  return 0;
}
