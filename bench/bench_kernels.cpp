// Hot-path kernel performance snapshot (docs/PERFORMANCE.md). Measures:
//
//   * fake-quant cast throughput, scalar fast-cast loop vs the batched
//     branch-free kernel, per FP8 format, pinned to one thread;
//   * blocked matmul throughput in GFLOP/s;
//   * packed FP8 GEMM (decode-in-register, docs/KERNELS.md) vs the
//     dequantize-then-matmul baseline, per FP8 format, at the dispatched
//     ISA tier (recorded in the row and the top-level "isa" field).
//
// Writes BENCH_kernels.json (override with --out=<path>). `--smoke` runs a
// reduced configuration with fewer and smaller shapes; the CI perf gate
// is `fp8q_report check-bench` / `fp8q_report diff` over the written JSON
// with explicit thresholds (tools/ci.sh, docs/PERFORMANCE.md).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "fp8/cast_fast.h"
#include "fp8/packed.h"
#include "nn/matmul.h"
#include "nn/packed_gemm.h"
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
  double scalar_elems_per_sec;
  double batched_elems_per_sec;
};

CastResult measure_cast(Fp8Kind kind, std::int64_t n, int iters, int reps) {
  const FastCastSpec& spec = fast_cast_spec(kind);
  Rng rng(17);
  Tensor data = randn(rng, {n});
  Tensor out(data.shape());
  const float scale = spec.max_value / 17.0f;
  const float inv = 1.0f / scale;
  const auto in = data.flat();
  auto dst = out.flat();

  double scalar_best = 0.0;
  double batched_best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        dst[i] = fp8_quantize_fast(in[i] * scale, spec) * inv;
      }
      sink = dst[0];
    }
    const double scalar_rate =
        static_cast<double>(n) * iters / seconds_since(t0);

    t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      fp8_quantize_batch(in, dst, spec, scale);
      sink = dst[0];
    }
    const double batched_rate =
        static_cast<double>(n) * iters / seconds_since(t0);

    if (scalar_rate > scalar_best) scalar_best = scalar_rate;
    if (batched_rate > batched_best) batched_best = batched_rate;
  }
  (void)sink;
  return {to_string(kind).data(), scalar_best, batched_best};
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
  const std::vector<Tensor> in = {a, b};
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

struct PackedGemmResult {
  std::int64_t m, k, n;
  const char* format;
  double packed_gflops;
  double dequant_gflops;
  double speedup;
  std::int64_t packed_bytes;
  std::int64_t fp32_bytes;
};

/// Packed FP8 GEMM (decode codes in-register, nn/packed_gemm.h) against
/// the baseline a deployment would otherwise run: dequantize the stored
/// codes to an FP32 weight, then the blocked FP32 matmul. Both paths
/// produce bit-identical outputs (the packed kernels' contract), so the
/// comparison is pure throughput. The weight is [n, k] row-major like
/// LinearOp's, and the baseline's unpack() is inside the timed loop --
/// that materialization cost is exactly what the packed path deletes.
PackedGemmResult measure_packed_gemm(Fp8Kind kind, std::int64_t m, std::int64_t k,
                                     std::int64_t n, int iters, int reps) {
  Rng rng(29);
  Tensor a = randn(rng, {m, k});
  Tensor b = randn(rng, {n, k});
  const PackedFp8Tensor packed = PackedFp8Tensor::pack_per_channel(b, kind);
  const PackedWeightMatrix w = pack_gemm_weight(packed);
  MatMulOp op(false, /*transpose_b=*/true);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n) * iters;
  double packed_best = 0.0;
  double dequant_best = 0.0;
  volatile float sink = 0.0f;
  for (int r = 0; r < reps; ++r) {
    std::uint64_t t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor y = packed_matmul(a, w);
      sink = y[0];
    }
    const double packed_rate = flops / seconds_since(t0) / 1e9;

    t0 = obs_now_ns();
    for (int it = 0; it < iters; ++it) {
      const Tensor wt = packed.unpack();
      const std::vector<Tensor> in = {a, wt};
      const Tensor y = op.forward(in);
      sink = y[0];
    }
    const double dequant_rate = flops / seconds_since(t0) / 1e9;

    if (packed_rate > packed_best) packed_best = packed_rate;
    if (dequant_rate > dequant_best) dequant_best = dequant_rate;
  }
  (void)sink;
  return {m,
          k,
          n,
          to_string(kind).data(),
          packed_best,
          dequant_best,
          dequant_best > 0.0 ? packed_best / dequant_best : 0.0,
          static_cast<std::int64_t>(w.storage_bytes()),
          static_cast<std::int64_t>(b.numel() * sizeof(float))};
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
  // (bench_parallel_scaling covers scaling).
  set_num_threads(1);

  const std::int64_t cast_n = smoke ? 65536 : 1 << 20;
  const int cast_iters = smoke ? 8 : 32;
  const int reps = smoke ? 2 : 3;

  std::vector<CastResult> casts;
  {
    ScopedStage stage("kernels/cast");
    for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
      casts.push_back(measure_cast(kind, cast_n, cast_iters, reps));
    }
  }

  std::vector<MatmulResult> matmuls;
  {
    ScopedStage stage("kernels/matmul");
    matmuls.push_back(measure_matmul(64, 256, 256, smoke ? 4 : 16, reps));
    if (!smoke) matmuls.push_back(measure_matmul(128, 512, 512, 8, reps));
  }

  std::vector<PackedGemmResult> packed_gemms;
  {
    ScopedStage stage("kernels/packed-gemm");
    for (Fp8Kind kind : {Fp8Kind::E5M2, Fp8Kind::E4M3, Fp8Kind::E3M4}) {
      packed_gemms.push_back(measure_packed_gemm(kind, 64, 256, 256, smoke ? 4 : 16, reps));
    }
    if (!smoke) {
      packed_gemms.push_back(measure_packed_gemm(Fp8Kind::E4M3, 128, 512, 512, 8, reps));
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
                 "    {\"format\": \"%s\", \"scalar_elems_per_sec\": %.3e, "
                 "\"batched_elems_per_sec\": %.3e, \"speedup\": %.2f}%s\n",
                 c.format, c.scalar_elems_per_sec, c.batched_elems_per_sec,
                 c.batched_elems_per_sec / c.scalar_elems_per_sec,
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
  std::fprintf(f, "  ],\n  \"packed_gemm\": [\n");
  for (std::size_t i = 0; i < packed_gemms.size(); ++i) {
    const auto& p = packed_gemms[i];
    std::fprintf(f,
                 "    {\"m\": %lld, \"k\": %lld, \"n\": %lld, \"format\": \"%s\", "
                 "\"packed_gflops\": %.2f, \"dequant_gflops\": %.2f, "
                 "\"speedup\": %.2f, \"packed_bytes\": %lld, \"fp32_bytes\": %lld}%s\n",
                 static_cast<long long>(p.m), static_cast<long long>(p.k),
                 static_cast<long long>(p.n), p.format, p.packed_gflops, p.dequant_gflops,
                 p.speedup, static_cast<long long>(p.packed_bytes),
                 static_cast<long long>(p.fp32_bytes),
                 i + 1 < packed_gemms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);

  std::printf("bench_kernels (%s) -> %s\n", smoke ? "smoke" : "full", out_path.c_str());
  for (const auto& c : casts) {
    std::printf("  cast %-5s scalar %.3e elem/s  batched %.3e elem/s  (%.2fx)\n",
                c.format, c.scalar_elems_per_sec, c.batched_elems_per_sec,
                c.batched_elems_per_sec / c.scalar_elems_per_sec);
  }
  for (const auto& m : matmuls) {
    std::printf("  matmul %lldx%lldx%lld: %.2f GFLOP/s\n", static_cast<long long>(m.m),
                static_cast<long long>(m.k), static_cast<long long>(m.n), m.gflops);
  }
  for (const auto& p : packed_gemms) {
    std::printf("  packed_gemm %lldx%lldx%lld %-5s [%s]: packed %.2f GFLOP/s  dequant %.2f "
                "GFLOP/s  (%.2fx)\n",
                static_cast<long long>(p.m), static_cast<long long>(p.k),
                static_cast<long long>(p.n), p.format, isa_label(), p.packed_gflops,
                p.dequant_gflops, p.speedup);
  }
  // The perf gate itself lives in `fp8q_report check-bench` (tools/ci.sh),
  // which reads the JSON written above and applies explicit thresholds;
  // this binary only measures.
  return 0;
}
