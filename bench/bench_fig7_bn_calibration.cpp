// Reproduces paper Figure 7: BatchNorm calibration effectiveness vs
// calibration sample count, comparing "training transform" (augmented) and
// "inference transform" (clean) calibration data. The paper recommends 3K
// samples with the training transform.
#include <cstdio>

#include "metrics/metrics.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

#include "bench_report.h"

using namespace fp8q;

namespace {

/// Augmented batch: random per-sample gain/shift plus pixel jitter --
/// the stand-in for the paper's training-transform augmentation (crops,
/// flips) which diversifies feature statistics.
Tensor augment(Rng& rng, const Tensor& clean) {
  Tensor out = clean;
  const std::int64_t n = out.size(0);
  const std::int64_t per = out.numel() / n;
  for (std::int64_t b = 0; b < n; ++b) {
    const float gain = rng.uniform(0.7f, 1.3f);
    const float shift = rng.normal(0.0f, 0.2f);
    float* d = out.data() + b * per;
    for (std::int64_t i = 0; i < per; ++i) {
      d[i] = d[i] * gain + shift + rng.normal(0.0f, 0.1f);
    }
  }
  return out;
}

}  // namespace

int main() {
  fp8q::BenchReport bench_report("bench_fig7_bn_calibration");
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "resnet50-ish");
  EvalProtocol protocol;
  protocol.eval_batches = 6;


  std::printf("Figure 7: BatchNorm calibration, sample size x transform (workload %s)\n\n",
              w.name.c_str());
  std::printf("%-10s | %14s %14s | %14s\n", "samples", "train-xform", "infer-xform",
              "no BN calib");

  // FP32 baseline once.
  const double fp32 = make_eval_plan(w, protocol).fp32_score;

  for (int samples : {128, 512, 1024, 3072}) {
    const int batch = 64;
    const int batches = samples / batch;
    double acc[3] = {0, 0, 0};
    int mode = 0;
    for (bool train_xform : {true, false}) {
      EvalProtocol p = protocol;
      p.calib_batches = batches;
      p.calib_batch_size = batch;
      p.bn_calibration_batches = batches;
      Workload wv = w;
      if (train_xform) {
        // Only the calibration set is augmented; evaluation stays clean.
        auto base = w.make_batch;
        wv.make_calib_batch = [base](Rng& rng, int bs) {
          auto in = base(rng, bs);
          in[0] = augment(rng, in[0]);
          return in;
        };
      }
      const auto rec = evaluate_workload(wv, standard_fp8_scheme(DType::kE3M4), p);
      acc[mode++] = rec.quant_accuracy;
    }
    {
      EvalProtocol p = protocol;
      p.calib_batches = batches;
      p.calib_batch_size = batch;
      p.bn_calibration_batches = 0;  // BN calibration disabled
      const auto rec = evaluate_workload(w, standard_fp8_scheme(DType::kE3M4), p);
      acc[2] = rec.quant_accuracy;
    }
    std::printf("%-10d | %14.4f %14.4f | %14.4f\n", samples, acc[0], acc[1], acc[2]);
    std::fflush(stdout);
  }
  std::printf("\nFP32 baseline accuracy: %.4f\n", fp32);
  std::printf("paper shape: accuracy recovers with more calibration samples; the\n"
              "training transform reaches peak accuracy at smaller sample sizes and\n"
              "~3K samples suffices (section 4.3.1).\n");
  return 0;
}
