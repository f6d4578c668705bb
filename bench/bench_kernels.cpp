// Hot-path kernel performance snapshot (docs/PERFORMANCE.md). Measures:
//
//   * the fake-quant cast kernels (fp8/cast_fast.h, fp8/int8.h) at the
//     scalar reference tier and at the dispatched tier, per FP8 format and
//     for INT8 (asymmetric, parameters from the data's range), each
//     without and with an event tally;
//   * MatMulOp throughput in GFLOP/s;
//   * the GEMM microkernel (nn/gemm.h, docs/KERNELS.md) at the scalar
//     reference tier and at the dispatched ISA tier (the top-level "isa"
//     field), and the speedup between them, at 64x256x256 and at the
//     shapes bert-large-cola-ish runs: its Linear layers over 1024 rows
//     (128 sequences of 8 tokens) with 64 and 256 features, and its
//     attention scores MatMul (8 tokens by 8, over 64 features);
//   * Conv2dOp::forward on the suite's CNN shape (10x10 images, 3x3
//     kernels, padding 1, 12 channels), dense and depthwise, the same way;
//   * the GELU kernel (nn/tanh.h) over 1 Mi floats, and over the 262,144
//     (1024 rows by 256 features) of bert-large-cola-ish's FFN activation,
//     which fits in cache as the transformer models run it, the same way.
//
// Everything runs on one thread.
//
// Writes BENCH_kernels.json (override with --out=<path>). `--smoke` runs a
// reduced configuration with fewer and smaller shapes; the CI perf gate
// is `fp8q_report check-bench` / `fp8q_report diff` over the written JSON
// with explicit thresholds (tools/ci.sh, docs/PERFORMANCE.md).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "fp8/cast_fast.h"
#include "fp8/int8.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/matmul.h"
#include "nn/tanh.h"
#include "obs/trace.h"
#include "tensor/rng.h"

#include "bench_report.h"

namespace {

using namespace fp8q;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs_now_ns() - t0_ns) / 1e9;
}

struct CastResult {
  const char* format;
  bool counted;
  double scalar_elems_per_sec;
  double elems_per_sec;
};

/// Elements/s of `cast` (one call over `n` elements) at `tier`, from one
/// timing that repeats the call until it has lasted `min_seconds`.
template <typename Cast>
double time_cast(IsaTier tier, std::size_t n, double min_seconds, const Cast& cast) {
  set_isa_tier(tier);
  const std::uint64_t t0 = obs_now_ns();
  int calls = 0;
  double elapsed = 0.0;
  do {
    cast();
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return static_cast<double>(n) * calls / elapsed;
}

/// One cast kernel (fp8_quantize_batch or int8_quantize_batch, out of
/// place, with or without an event tally) at the scalar reference tier and
/// at the dispatched tier, best of `reps` alternating timings each, as
/// measure_gemm does.
template <typename Cast>
CastResult measure_cast(const char* format, bool counted, std::size_t n, double min_seconds,
                        int reps, const Cast& cast) {
  const IsaTier dispatched = isa_tier();
  CastResult result{format, counted, 0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    result.scalar_elems_per_sec = std::max(result.scalar_elems_per_sec,
                                           time_cast(IsaTier::kScalar, n, min_seconds, cast));
    result.elems_per_sec =
        std::max(result.elems_per_sec, time_cast(dispatched, n, min_seconds, cast));
  }
  reset_isa_tier();
  return result;
}

/// The FP8 rows (per format) and the INT8 row (asymmetric, parameters from
/// the data's range), each uncounted and counted, over `n` normal draws.
std::vector<CastResult> measure_casts(std::int64_t n, double min_seconds, int reps) {
  Rng rng(17);
  const Tensor data = randn(rng, {n});
  Tensor out(data.shape());
  const auto in = data.flat();
  auto dst = out.flat();
  std::vector<CastResult> rows;
  for (const bool counted : {false, true}) {
    CastTally tally;
    CastTally* t = counted ? &tally : nullptr;
    for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
      const FastCastSpec& spec = fast_cast_spec(kind);
      const float scale = spec.max_value / 17.0f;
      rows.push_back(measure_cast(to_string(kind).data(), counted, in.size(), min_seconds, reps,
                                  [&] { fp8_quantize_batch(in, dst, spec, scale, t); }));
    }
    const auto [lo, hi] = std::minmax_element(in.begin(), in.end());
    const Int8Params p = int8_asymmetric_params(*lo, *hi);
    rows.push_back(measure_cast("INT8", counted, in.size(), min_seconds, reps,
                                [&] { int8_quantize_batch(in, dst, p, t); }));
  }
  return rows;
}

struct MatmulResult {
  std::int64_t m, k, n;
  double gflops;
};

MatmulResult measure_matmul(std::int64_t m, std::int64_t k, std::int64_t n, int iters,
                            int reps) {
  Rng rng(23);
  Tensor a = randn(rng, {m, k});
  Tensor b = randn(rng, {k, n});
  MatMulOp op(false, false);
  const std::array<const Tensor*, 2> in = {&a, &b};
  double best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor y = op.forward(in);
      sink = y[0];
    }
    const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                         static_cast<double>(n) * iters;
    const double rate = flops / seconds_since(t0) / 1e9;
    if (rate > best) best = rate;
  }
  (void)sink;
  return {m, k, n, best};
}

struct GemmResult {
  std::int64_t m, k, n;
  double scalar_gflops;
  double gflops;
};

/// GFLOP/s of one tier's kernel on y += a * b, from one timing that
/// repeats the call until it has lasted `min_seconds`, so fast and slow
/// tiers are both timed over the same wall span.
double time_gemm(GemmKernel kernel, const Tensor& a, const Tensor& b, Tensor& y,
                 double min_seconds) {
  const std::int64_t m = a.size(0);
  const std::int64_t k = a.size(1);
  const std::int64_t n = b.size(1);
  const std::uint64_t t0 = obs_now_ns();
  int calls = 0;
  double elapsed = 0.0;
  do {
    kernel(a.data(), b.data(), y.data(), m, n, k);
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n) *
         calls / elapsed / 1e9;
}

/// The GEMM microkernel (nn/gemm.h) at the scalar reference tier and at
/// the dispatched tier, single-threaded, best of `reps` timings each. The
/// two tiers' timings alternate, so a drift in machine speed hits both.
/// Every tier computes the same bits, so the ratio is pure throughput.
GemmResult measure_gemm(std::int64_t m, std::int64_t k, std::int64_t n, double min_seconds,
                        int reps) {
  Rng rng(29);
  const Tensor a = randn(rng, {m, k});
  const Tensor b = randn(rng, {k, n});
  Tensor y({m, n});
  GemmResult result{m, k, n, 0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    result.scalar_gflops = std::max(
        result.scalar_gflops, time_gemm(gemm_kernel(IsaTier::kScalar), a, b, y, min_seconds));
    result.gflops =
        std::max(result.gflops, time_gemm(gemm_kernel(isa_tier()), a, b, y, min_seconds));
  }
  return result;
}

// The suite's CNN shape (models/zoo.cpp, workloads/registry.cpp): 10x10
// images, 3x3 kernels, padding 1.
constexpr std::int64_t kConvSide = 10;
constexpr std::int64_t kConvKernel = 3;
constexpr int kConvPadding = 1;

struct ConvResult {
  std::int64_t n, channels, groups;
  double scalar_gflops;
  double gflops;
};

/// GFLOP/s of Conv2dOp::forward at `tier`, from one timing that repeats
/// the call until it has lasted `min_seconds`. The flops are the conv's
/// own 2 * taps per output, not the GEMM's.
double time_conv(IsaTier tier, Conv2dOp& op, const Tensor& x, double flops,
                 double min_seconds) {
  set_isa_tier(tier);
  volatile float sink = 0.0f;
  const std::uint64_t t0 = obs_now_ns();
  int calls = 0;
  double elapsed = 0.0;
  do {
    sink = op.forward(std::array{&x})[0];
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  (void)sink;
  return flops * calls / elapsed / 1e9;
}

/// A conv of `channels` -> `channels` in `groups` groups over a batch of
/// `n` images of the suite's shape, at the scalar reference tier and at
/// the dispatched tier, best of `reps` alternating timings each, as
/// measure_gemm does.
ConvResult measure_conv(std::int64_t n, std::int64_t channels, std::int64_t groups,
                        double min_seconds, int reps) {
  Rng rng(37);
  const Tensor x = randn(rng, {n, channels, kConvSide, kConvSide});
  Conv2dOp op(randn(rng, {channels, channels / groups, kConvKernel, kConvKernel}),
              randn(rng, {channels}), /*stride=*/1, kConvPadding, static_cast<int>(groups));
  const double flops = 2.0 * static_cast<double>(n * channels * kConvSide * kConvSide) *
                       static_cast<double>(channels / groups * kConvKernel * kConvKernel);
  const IsaTier dispatched = isa_tier();
  ConvResult result{n, channels, groups, 0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    result.scalar_gflops = std::max(result.scalar_gflops,
                                    time_conv(IsaTier::kScalar, op, x, flops, min_seconds));
    result.gflops = std::max(result.gflops, time_conv(dispatched, op, x, flops, min_seconds));
  }
  reset_isa_tier();
  return result;
}

struct GeluResult {
  std::int64_t n;
  double scalar_elems_per_sec;
  double elems_per_sec;
};

/// Elements/s of one tier's GELU kernel over a fresh copy of `in` per
/// call, timing only the kernel calls until they have lasted `min_seconds`.
double time_gelu(ActivationKernel kernel, const std::vector<float>& in, std::vector<float>& buf,
                 double min_seconds) {
  double busy = 0.0;
  int calls = 0;
  do {
    buf = in;
    const std::uint64_t t0 = obs_now_ns();
    kernel(buf.data(), static_cast<std::int64_t>(buf.size()));
    busy += seconds_since(t0);
    ++calls;
  } while (busy < min_seconds);
  return static_cast<double>(in.size()) * calls / busy;
}

/// The GELU kernel (nn/tanh.h) at the scalar reference tier and at the
/// dispatched tier, single-threaded, best of `reps` alternating timings
/// each, as measure_gemm does.
GeluResult measure_gelu(std::int64_t n, double min_seconds, int reps) {
  Rng rng(31);
  const Tensor x = randn(rng, {n});
  const std::vector<float> in(x.flat().begin(), x.flat().end());
  std::vector<float> buf;
  GeluResult result{n, 0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    result.scalar_elems_per_sec = std::max(
        result.scalar_elems_per_sec, time_gelu(gelu_kernel(IsaTier::kScalar), in, buf, min_seconds));
    result.elems_per_sec =
        std::max(result.elems_per_sec, time_gelu(gelu_kernel(isa_tier()), in, buf, min_seconds));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  fp8q::BenchReport bench_report("bench_kernels");
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  // One thread: the numbers measure the kernels, not the parallel runtime
  // (perfbench/ measures scaling end to end).
  set_num_threads(1);

  const int reps = smoke ? 2 : 3;

  std::vector<CastResult> casts;
  {
    ScopedStage stage("kernels/cast");
    casts = measure_casts(smoke ? 65536 : 1 << 20, smoke ? 0.01 : 0.1, reps);
  }

  std::vector<MatmulResult> matmuls;
  {
    ScopedStage stage("kernels/matmul");
    matmuls.push_back(measure_matmul(64, 256, 256, smoke ? 4 : 16, reps));
    if (!smoke) matmuls.push_back(measure_matmul(128, 512, 512, 8, reps));
  }

  std::vector<GemmResult> gemms;
  {
    ScopedStage stage("kernels/gemm");
    // m, k, n: 64x256x256, then bert-large-cola-ish's q/k/v/proj, ffn1
    // and ffn2 Linears and its attention scores.
    constexpr std::int64_t kGemmShapes[][3] = {
        {64, 256, 256}, {1024, 64, 64}, {1024, 64, 256}, {1024, 256, 64}, {8, 64, 8}};
    for (const auto& s : kGemmShapes) {
      gemms.push_back(measure_gemm(s[0], s[1], s[2], smoke ? 0.02 : 0.2, 5));
    }
  }

  std::vector<ConvResult> convs;
  {
    ScopedStage stage("kernels/conv");
    const std::int64_t batch = smoke ? 16 : 128;
    for (const std::int64_t groups : {1, 12}) {
      convs.push_back(measure_conv(batch, 12, groups, smoke ? 0.02 : 0.2, 5));
    }
  }

  std::vector<GeluResult> gelus;
  {
    ScopedStage stage("kernels/gelu");
    for (const std::int64_t n : {1 << 20, 1024 * 256}) {
      gelus.push_back(measure_gelu(n, smoke ? 0.02 : 0.2, 5));
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"version\": 1,\n  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"isa\": \"%s\",\n", isa_label());
  std::fprintf(f, "  \"cast\": [\n");
  for (std::size_t i = 0; i < casts.size(); ++i) {
    const auto& c = casts[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"counted\": %s, \"scalar_elems_per_sec\": %.3e, "
                 "\"elems_per_sec\": %.3e, \"speedup\": %.2f}%s\n",
                 c.format, c.counted ? "true" : "false", c.scalar_elems_per_sec,
                 c.elems_per_sec, c.elems_per_sec / c.scalar_elems_per_sec,
                 i + 1 < casts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"matmul\": [\n");
  for (std::size_t i = 0; i < matmuls.size(); ++i) {
    const auto& m = matmuls[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"gflops\": %.2f}%s\n",
                 static_cast<long long>(m.m), static_cast<long long>(m.k),
                 static_cast<long long>(m.n), m.gflops,
                 i + 1 < matmuls.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"scalar_gflops\": %.2f, "
                 "\"gflops\": %.2f, \"speedup\": %.2f}%s\n",
                 static_cast<long long>(g.m), static_cast<long long>(g.k),
                 static_cast<long long>(g.n), g.scalar_gflops, g.gflops,
                 g.gflops / g.scalar_gflops, i + 1 < gemms.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"conv\": [\n");
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const auto& c = convs[i];
    std::fprintf(f,
                 "    {\"n\": %lld, \"channels\": %lld, \"groups\": %lld, \"hw\": %lld, "
                 "\"kernel\": %lld, \"padding\": %d, \"scalar_gflops\": %.2f, "
                 "\"gflops\": %.2f, \"speedup\": %.2f}%s\n",
                 static_cast<long long>(c.n), static_cast<long long>(c.channels),
                 static_cast<long long>(c.groups), static_cast<long long>(kConvSide),
                 static_cast<long long>(kConvKernel), kConvPadding, c.scalar_gflops, c.gflops,
                 c.gflops / c.scalar_gflops, i + 1 < convs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gelu\": [\n");
  for (std::size_t i = 0; i < gelus.size(); ++i) {
    const auto& g = gelus[i];
    std::fprintf(f,
                 "    {\"n\": %lld, \"scalar_elems_per_sec\": %.3e, \"elems_per_sec\": %.3e, "
                 "\"speedup\": %.2f}%s\n",
                 static_cast<long long>(g.n), g.scalar_elems_per_sec, g.elems_per_sec,
                 g.elems_per_sec / g.scalar_elems_per_sec, i + 1 < gelus.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("bench_kernels (%s) -> %s\n", smoke ? "smoke" : "full", out_path.c_str());
  for (const auto& c : casts) {
    std::printf("  cast %-4s %-9s [%s]: %.3e elem/s  scalar %.3e elem/s  (%.2fx)\n", c.format,
                c.counted ? "counted" : "uncounted", isa_label(), c.elems_per_sec,
                c.scalar_elems_per_sec, c.elems_per_sec / c.scalar_elems_per_sec);
  }
  for (const auto& m : matmuls) {
    std::printf("  matmul %lldx%lldx%lld: %.2f GFLOP/s\n", static_cast<long long>(m.m),
                static_cast<long long>(m.k), static_cast<long long>(m.n), m.gflops);
  }
  for (const auto& g : gemms) {
    std::printf("  gemm %lldx%lldx%lld [%s]: %.2f GFLOP/s  scalar %.2f GFLOP/s  (%.2fx)\n",
                static_cast<long long>(g.m), static_cast<long long>(g.k),
                static_cast<long long>(g.n), isa_label(), g.gflops, g.scalar_gflops,
                g.gflops / g.scalar_gflops);
  }
  for (const auto& c : convs) {
    std::printf("  conv n=%lld %lld->%lld groups=%lld [%s]: %.2f GFLOP/s  scalar %.2f GFLOP/s  "
                "(%.2fx)\n",
                static_cast<long long>(c.n), static_cast<long long>(c.channels),
                static_cast<long long>(c.channels), static_cast<long long>(c.groups), isa_label(),
                c.gflops, c.scalar_gflops, c.gflops / c.scalar_gflops);
  }
  for (const auto& g : gelus) {
    std::printf("  gelu n=%lld [%s]: %.3e elem/s  scalar %.3e elem/s  (%.2fx)\n",
                static_cast<long long>(g.n), isa_label(), g.elems_per_sec,
                g.scalar_elems_per_sec, g.elems_per_sec / g.scalar_elems_per_sec);
  }
  // The perf gate itself lives in `fp8q_report check-bench` (tools/ci.sh),
  // which reads the JSON written above and applies explicit thresholds;
  // this binary only measures.
  return 0;
}
