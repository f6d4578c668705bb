// CV PTQ walkthrough: quantizing a ResNet-class CNN with the paper's CV
// recipe -- first/last operators kept in FP32, per-channel conv weights,
// and BatchNorm calibration to recover the quantization-induced variance
// shift (paper section 3 / Figure 7).
#include <cstdio>

#include "core/fp8q.h"

using namespace fp8q;

int main() {
  CnnSpec spec;
  spec.image_hw = 12;
  spec.base_channels = 16;
  spec.blocks = 3;
  Graph resnet = make_cnn(spec);

  Rng rng(5);
  auto make_batch = [&](int n) { return randn(rng, {n, 3, 12, 12}); };

  // Settle BN statistics so the FP32 reference is self-consistent.
  {
    std::vector<BatchNorm2dOp*> bns;
    for (Graph::NodeId id : resnet.node_ids()) {
      if (auto* bn = dynamic_cast<BatchNorm2dOp*>(resnet.node(id).op.get())) {
        bn->begin_calibration();
        bns.push_back(bn);
      }
    }
    for (int i = 0; i < 4; ++i) (void)resnet.forward(make_batch(16));
    for (auto* bn : bns) bn->finish_calibration();
  }

  std::vector<Tensor> calib;
  for (int i = 0; i < 8; ++i) calib.push_back(make_batch(32));
  Tensor input = make_batch(64);
  const Tensor reference = resnet.forward(input);

  std::printf("ResNet-class CNN PTQ (E3M4: the paper's CV default)\n\n");
  std::printf("%-34s %12s %14s\n", "recipe", "SQNR (dB)", "top1 agreement");

  // Each recipe quantizes its own clone: prepare() rewrites the weights and
  // the BatchNorm statistics of the graph it is given.
  auto report = [&](const char* name, ModelQuantConfig cfg) {
    Graph copy = resnet.clone();
    QuantizedGraph qg(&copy, cfg);
    qg.prepare(std::span<const Tensor>(calib));
    const Tensor out = qg.forward(input);
    std::printf("%-34s %12.2f %14.4f\n", name, sqnr_db(reference.flat(), out.flat()),
                top1_agreement(reference, out));
    // Show which operators the scheme covered.
    if (cfg.scheme.skip_first_last) {
      std::printf("    (first node '%s' and last node '%s' kept at FP32)\n",
                  resnet.node(resnet.first_compute_node()).name.c_str(),
                  resnet.node(resnet.last_compute_node()).name.c_str());
    }
  };

  ModelQuantConfig cv;
  cv.scheme = standard_fp8_scheme(DType::kE3M4);
  cv.is_cnn = true;
  cv.bn_calibration_batches = 8;
  report("E3M4 + BN calibration", cv);

  ModelQuantConfig no_bn = cv;
  no_bn.bn_calibration_batches = 0;
  report("E3M4 without BN calibration", no_bn);

  ModelQuantConfig all_ops = cv;
  all_ops.scheme.skip_first_last = false;
  report("E3M4 quantizing first/last too", all_ops);

  ModelQuantConfig int8 = cv;
  int8.scheme = int8_scheme(false);
  report("INT8 static (baseline)", int8);

  std::printf("\nBatchNorm calibration re-estimates running statistics through the\n"
              "quantized network; the paper recommends ~3K samples with the training\n"
              "transform (Figure 7).\n");
  return 0;
}
