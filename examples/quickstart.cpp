// Quickstart: quantize a small model to FP8 and run inference.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/fp8q.h"

using namespace fp8q;

int main() {
  // 1. A model: any Graph works; here a tiny MLP from the zoo.
  MlpSpec spec;
  spec.in_dim = 32;
  spec.hidden = 64;
  spec.layers = 3;
  spec.out_dim = 8;
  Graph model = make_mlp_model(spec);
  std::printf("model: %d nodes, %lld parameters (%.3f MB at FP32)\n", model.node_count(),
              static_cast<long long>(model.param_count()), model.size_mb());

  // 2. Calibration data (any representative batches).
  Rng rng(1);
  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(randn(rng, {32, 32}));

  // 3. FP32 reference.
  Tensor input = randn(rng, {16, 32});
  const Tensor reference = model.forward(input);

  // 4. Post-training quantization: one config per format. prepare()
  //    rewrites the weights of the graph it is given, so each format
  //    quantizes its own clone and `model` stays FP32.
  std::printf("\n%-14s %12s %12s\n", "scheme", "output MSE", "SQNR (dB)");
  for (DType fmt : {DType::kE5M2, DType::kE4M3, DType::kE3M4}) {
    ModelQuantConfig cfg;
    cfg.scheme = standard_fp8_scheme(fmt);  // per-channel weights, per-tensor acts
    Graph copy = model.clone();
    QuantizedGraph quantized(&copy, cfg);
    quantized.prepare(std::span<const Tensor>(calib));  // calibrate + quantize
    const Tensor output = quantized.forward(input);     // FP8 inference
    std::printf("%-14s %12.3e %12.2f\n", cfg.scheme.label().c_str(),
                mse(reference, output), sqnr_db(reference.flat(), output.flat()));
  }

  // 5. Raw casting API, if you just want the formats.
  std::printf("\ncasting 3.14159 -> E4M3 grid: %g (code 0x%02X)\n",
              fp8_quantize(3.14159f, Fp8Kind::E4M3),
              fp8_encode(3.14159f, Fp8Kind::E4M3));
  return 0;
}
