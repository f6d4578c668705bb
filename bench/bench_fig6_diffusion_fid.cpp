// Reproduces paper Figure 6 (and Appendix A.2): Stable Diffusion image
// quality per format, scored by FID (lower is better).
//
// Substitution (DESIGN.md): the denoiser is a small U-Net; "images" are its
// outputs on noise+condition inputs; FID is the Frechet distance between
// the feature statistics of the FP32 outputs and each format's outputs --
// the same statistic FID computes, on the features our substitute model
// produces.
#include <cmath>
#include <cstdio>

#include "metrics/metrics.h"
#include "models/zoo.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"
#include "workloads/registry.h"

#include "bench_report.h"

using namespace fp8q;

namespace {

/// 4x4-average-pooled features of a [n, c, h, w] batch -> [n, c*(h/4)*(w/4)].
Tensor pooled_features(const Tensor& images) {
  const std::int64_t n = images.size(0);
  const std::int64_t c = images.size(1);
  const std::int64_t h = images.size(2);
  const std::int64_t w = images.size(3);
  const std::int64_t ph = h / 4;
  const std::int64_t pw = w / 4;
  Tensor f({n, c * ph * pw});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = images.data() + (b * c + ch) * h * w;
      for (std::int64_t py = 0; py < ph; ++py) {
        for (std::int64_t px = 0; px < pw; ++px) {
          double s = 0.0;
          for (int dy = 0; dy < 4; ++dy) {
            for (int dx = 0; dx < 4; ++dx) s += plane[(py * 4 + dy) * w + px * 4 + dx];
          }
          f[b * (c * ph * pw) + (ch * ph + py) * pw + px] = static_cast<float>(s / 16.0);
        }
      }
    }
  }
  return f;
}

}  // namespace

int main() {
  fp8q::BenchReport bench_report("bench_fig6_diffusion_fid");
  UnetSpec spec;
  spec.in_channels = 2;
  spec.hw = 16;
  spec.base_channels = 8;
  spec.seed = 31;
  Graph unet = make_unet(spec);

  // "Prompted" inputs: latent noise plus a per-sample condition offset and
  // sparse high-magnitude entries (the attention / time-embedding outliers
  // real diffusion U-Nets carry in their activations).
  Rng rng(555);
  auto make_latents = [&](int n) {
    Tensor x = randn(rng, {n, 2, 16, 16});
    for (std::int64_t b = 0; b < n; ++b) {
      const float cond = rng.uniform(-1.0f, 1.0f);
      float* d = x.data() + b * 2 * 16 * 16;
      for (int i = 0; i < 16 * 16; ++i) d[i] += cond;  // condition channel 0
    }
    for (float& v : x.flat()) {
      if (rng.uniform01() < 0.01) v = (rng.uniform01() < 0.5 ? -1500.0f : 1500.0f);
    }
    return x;
  };

  std::vector<Tensor> calib;
  for (int i = 0; i < 4; ++i) calib.push_back(make_latents(16));
  const int samples = 256;
  Tensor latents = make_latents(samples);

  const Tensor fp32_out = unet.forward(latents);
  Tensor fp32_feats = pooled_features(fp32_out);

  // Standardize features by the FP32 population statistics (Inception FID
  // features are similarly whitened): every feature dimension then counts
  // equally, instead of the few outlier-dominated ones.
  const std::int64_t feat_n = fp32_feats.size(0);
  const std::int64_t feat_d = fp32_feats.size(1);
  std::vector<float> mu(static_cast<size_t>(feat_d), 0.0f);
  std::vector<float> sd(static_cast<size_t>(feat_d), 0.0f);
  for (std::int64_t i = 0; i < feat_n; ++i) {
    for (std::int64_t j = 0; j < feat_d; ++j) mu[static_cast<size_t>(j)] += fp32_feats[i * feat_d + j];
  }
  for (auto& m : mu) m /= static_cast<float>(feat_n);
  for (std::int64_t i = 0; i < feat_n; ++i) {
    for (std::int64_t j = 0; j < feat_d; ++j) {
      const float d = fp32_feats[i * feat_d + j] - mu[static_cast<size_t>(j)];
      sd[static_cast<size_t>(j)] += d * d;
    }
  }
  for (auto& s : sd) s = std::sqrt(std::max(1e-12f, s / static_cast<float>(feat_n)));
  auto standardize = [&](Tensor f) {
    for (std::int64_t i = 0; i < f.size(0); ++i) {
      for (std::int64_t j = 0; j < feat_d; ++j) {
        auto& v = f[i * feat_d + j];
        v = (v - mu[static_cast<size_t>(j)]) / sd[static_cast<size_t>(j)];
      }
    }
    return f;
  };
  fp32_feats = standardize(std::move(fp32_feats));

  std::printf("Figure 6: diffusion-denoiser output quality per format\n");
  std::printf("(FID proxy: Frechet distance between FP32-output and quantized-output\n"
              " feature statistics over %d samples; lower is better)\n\n", samples);
  std::printf("%-14s | %12s %12s | paper FID (SD, 5k images)\n", "config", "FID-proxy",
              "out-MSE");

  struct Row {
    const char* name;
    SchemeConfig scheme;
    const char* paper;
  };
  const Row rows[] = {
      {"E5M2/direct", standard_fp8_scheme(DType::kE5M2), "~31 (worse than E4M3/E3M4)"},
      {"E4M3/static", standard_fp8_scheme(DType::kE4M3), "~30 (close to FP32)"},
      {"E3M4/static", standard_fp8_scheme(DType::kE3M4), "~30 (close to FP32)"},
      {"INT8/static", int8_scheme(false), "worst (visible artifacts)"},
  };
  for (const Row& r : rows) {
    ModelQuantConfig cfg;
    cfg.scheme = r.scheme;
    cfg.is_cnn = true;
    Graph copy = unet.clone();  // prepare() rewrites the weights
    QuantizedGraph qg(&copy, cfg);
    qg.prepare(std::span<const Tensor>(calib));
    const Tensor out = qg.forward(latents);
    std::printf("%-14s | %12.5f %12.3e | %s\n", r.name,
                frechet_distance_diag(fp32_feats, standardize(pooled_features(out))),
                mse(fp32_out.flat(), out.flat()), r.paper);
    std::fflush(stdout);
  }
  std::printf("\npaper shape: E4M3/E3M4 stay near the FP32 distribution while E5M2 is\n"
              "clearly worse (reproduced). The paper additionally reports INT8 as the\n"
              "worst; our untrained denoiser does not reproduce that row because\n"
              "INT8's bounded absolute error is noise-like here, whereas on the real\n"
              "Stable Diffusion it produces systematic artifacts (see EXPERIMENTS.md).\n");
  return 0;
}
