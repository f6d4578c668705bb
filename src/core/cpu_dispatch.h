// Runtime CPU dispatch for the cast, GEMM and tanh kernels
// (docs/KERNELS.md).
//
// The fake-quant casts every quantized op runs (fp8_quantize_batch in
// fp8/cast_fast.h, int8_quantize_batch in fp8/int8.h), the f32 GEMM kernel
// under Linear, MatMul and Conv2d (nn/gemm.h) and the tanh kernel under
// Tanh and GELU (nn/tanh.h) each come in three tiers that produce
// bit-identical results (outputs and cast event tallies) and differ only
// in speed:
//
//   kScalar   portable reference: plain loops (the casts one
//             fp8_quantize_fast or int8_encode/int8_decode per element;
//             the GEMM one row at a time; tanh a transcription of
//             fdlibm's branches). The bit-exactness anchor every other
//             tier is tested against.
//   kBatched  the kernel's vector body on 16-byte vectors (SSE2 on
//             x86-64, NEON on AArch64): an auto-vectorized loop for the
//             casts, GCC vector extensions for the GEMM and tanh. Works
//             on every target; the default when no native path exists.
//   kNative   the same vector body on 32-byte vectors, compiled for AVX2
//             (not FMA) on x86-64.
//
// Tier resolution order: set_isa_tier() override > the FP8Q_ISA
// environment variable ("scalar" | "batched" | "native"; "avx2" is an
// accepted alias for "native") > the best tier the CPU supports. A
// request for kNative on a machine without AVX2 clamps to kBatched, so
// isa_tier() always names a tier that can actually run.
//
// The probe is a one-time cpuid check (__builtin_cpu_supports on x86-64;
// every other architecture has no native tier), cached after first use.
// Dispatch happens per call: the casts pick their tier with isa_tier()
// through run_cast_tier (fp8/cast_tier.h), and the ops index the GEMM
// and tanh kernel tables with it (gemm_kernel in nn/gemm.h, tanh_kernel
// and gelu_kernel in nn/tanh.h), so tests can flip tiers between calls
// with set_isa_tier(). The range statistics that feed the casts
// (tensor/stats.h) have no tiers: one 16-byte loop each.
#pragma once

namespace fp8q {

/// Kernel implementation tiers, ordered from reference to fastest.
enum class IsaTier { kScalar = 0, kBatched = 1, kNative = 2 };

/// Stable lowercase tier names used in reports and bench JSON
/// ("scalar", "batched", "native").
[[nodiscard]] const char* to_string(IsaTier tier);

/// The tier the kernels dispatch on (see resolution order above).
/// Always satisfiable: never returns kNative unless isa_native_available().
[[nodiscard]] IsaTier isa_tier();

/// Programmatic override of the FP8Q_ISA / probe default (tests, benches).
/// A kNative request without native support clamps to kBatched.
void set_isa_tier(IsaTier tier);

/// Clears the override and restores the FP8Q_ISA / probe default.
void reset_isa_tier();

/// True when the CPU supports the AVX2 native tier.
[[nodiscard]] bool isa_native_available();

/// "scalar" / "batched" / "native:avx2" -- the fully resolved dispatch
/// label written into run reports and bench rows.
[[nodiscard]] const char* isa_label();

}  // namespace fp8q
