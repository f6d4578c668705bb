// Runtime CPU dispatch for the cast, GEMM, tanh and LayerNorm kernels
// (docs/KERNELS.md): the tier switch, the CPU probes and the target
// wrappers, in one place.
//
// The fake-quant casts every quantized op runs (fp8_quantize_batch in
// fp8/cast_fast.h, int8_quantize_batch in fp8/int8.h), the f32 GEMM kernel
// under Linear, MatMul and Conv2d (nn/gemm.h), the tanh kernel under
// Tanh and GELU (nn/tanh.h) and LayerNorm's rows (nn/norm.h) each come
// in four tiers that produce bit-identical results (outputs and cast
// event tallies) and differ only in speed:
//
//   kScalar   portable reference: plain loops (the casts one
//             fp8_quantize_fast or int8_encode/int8_decode per element;
//             the GEMM one row at a time; tanh a transcription of
//             fdlibm's branches; LayerNorm each row's mean and variance
//             summed serially in double). The bit-exactness anchor every
//             other tier is tested against.
//   kBatched  the kernel's vector body at 16 bytes (SSE2 on x86-64, NEON
//             on AArch64): an auto-vectorized loop for the casts, GCC
//             vector extensions for the GEMM, tanh and LayerNorm, whose
//             body puts one row in each double lane and sums it in the
//             reference's order. Works on every target; the default when
//             no wider tier runs.
//   kNative   the same vector body at 32 bytes, compiled for AVX2 (not
//             FMA) on x86-64.
//   kWide     the same vector body at 64 bytes, compiled for AVX-512 F
//             and VL (not FMA) on x86-64. VL gives the narrower vectors
//             that run there, such as the GEMM's column tails, their ymm
//             and xmm forms (docs/KERNELS.md).
//
// Tier resolution order: set_isa_tier() override > the FP8Q_ISA
// environment variable ("scalar" | "batched" | "native" | "wide"; "avx2"
// and "avx512" are accepted aliases for the last two) > the best tier the
// CPU supports. A request for a tier the CPU lacks clamps down to the best
// tier below it that runs (kWide to kNative to kBatched), so isa_tier()
// always names a tier that can actually run.
//
// The probes are one-time cpuid checks (__builtin_cpu_supports on x86-64;
// every other architecture runs kBatched at most), cached after first use.
// Dispatch happens per call: every kernel runs its tier through
// run_tier() below, with isa_tier() (the casts, the ops) or a tier the
// caller names (gemm_kernel in nn/gemm.h, tanh_kernel and gelu_kernel in
// nn/tanh.h), so tests can flip tiers between calls with set_isa_tier().
// The range statistics that feed the casts (tensor/stats.h) have no
// tiers: one 16-byte loop each.
#pragma once

#include <type_traits>

namespace fp8q {

/// Kernel implementation tiers, ordered from reference to fastest.
enum class IsaTier { kScalar = 0, kBatched = 1, kNative = 2, kWide = 3 };

/// Stable lowercase tier names used in reports and bench JSON
/// ("scalar", "batched", "native", "wide").
[[nodiscard]] const char* to_string(IsaTier tier);

/// The tier the kernels dispatch on (see resolution order above). Always
/// satisfiable: never names a tier that runnable_tier() would lower.
[[nodiscard]] IsaTier isa_tier();

/// Programmatic override of the FP8Q_ISA / probe default (tests, benches).
/// A request the CPU cannot run clamps down, as runnable_tier() does.
void set_isa_tier(IsaTier tier);

/// Clears the override and restores the FP8Q_ISA / probe default.
void reset_isa_tier();

/// True when the CPU supports the AVX2 native tier.
[[nodiscard]] bool isa_native_available();

/// True when the CPU supports the AVX-512 (F and VL) wide tier, and so
/// AVX2 too.
[[nodiscard]] bool isa_wide_available();

/// The best tier at or below `tier` that this CPU runs.
[[nodiscard]] IsaTier runnable_tier(IsaTier tier);

/// "scalar" / "batched" / "native:avx2" / "wide:avx512" -- the fully
/// resolved dispatch label written into run reports and bench rows.
[[nodiscard]] const char* isa_label();

/// The vector width, in bytes, of the tier a vector body runs at.
template <int kBytes>
using VectorBytes = std::integral_constant<int, kBytes>;

#if defined(__x86_64__)
// One wrapper per width above the baseline: `vector` compiled for that
// width's ISA (and not FMA). flatten inlines the whole body here, so it is
// generated under this function's target; run_tier enters it only after
// the runtime probe.
template <class Vector>
[[gnu::target("avx2"), gnu::flatten]] void run_avx2(const Vector& vector) {
  vector(VectorBytes<32>{});
}

template <class Vector>
[[gnu::target("avx512f,avx512vl"), gnu::flatten]] void run_avx512(const Vector& vector) {
  vector(VectorBytes<64>{});
}
#endif

/// The one tier switch: runs `scalar()` at kScalar and
/// `vector(VectorBytes<W>{})` at the vector tiers, W = 16, 32 or 64 bytes,
/// the wider two under their ISA's target. `tier` is clamped to one the
/// CPU runs first.
template <class Scalar, class Vector>
void run_tier(IsaTier tier, const Scalar& scalar, const Vector& vector) {
  switch (runnable_tier(tier)) {
    case IsaTier::kScalar:
      return scalar();
#if defined(__x86_64__)
    case IsaTier::kNative:
      return run_avx2(vector);
    case IsaTier::kWide:
      return run_avx512(vector);
#endif
    default:
      return vector(VectorBytes<16>{});
  }
}

}  // namespace fp8q
