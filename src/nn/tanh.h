// The f32 tanh kernel under ActivationOp's Tanh and GELU (docs/KERNELS.md).
//
// Contract, at every tier: each element gets the bits of fdlibm's tanhf
// (s_tanhf.c over s_expm1f.c, the code glibc's libm runs), and GELU gets
// the bits of
//
//   0.5f * v * (1.0f + tanh(c * (v + 0.044715f * v * v * v)))
//
// with c = float(sqrt(2 / pi)), every operation rounded on its own in that
// order (fp contraction is off in tanh.cpp). No tier calls the host's
// libm, so the outputs do not depend on it.
//
// Dispatch: tanh_kernel(tier) and gelu_kernel(tier) return that tier's
// kernel; callers index them with isa_tier() (core/cpu_dispatch.h), as
// gemm_kernel is. Two bodies live in tanh.cpp: the scalar reference, a
// transcription of fdlibm with its branches, and one branch-free vector
// body whose 16-byte instantiation is kBatched and whose 32-byte
// instantiation, compiled for AVX2, is kNative on x86-64. Without AVX2
// (CPU or architecture) kNative falls back to the kBatched kernel.
#pragma once

#include <cstdint>

#include "core/cpu_dispatch.h"

namespace fp8q {

/// One tier's kernel: v[i] = f(v[i]) for i < n, in place, single-threaded.
using ActivationKernel = void (*)(float* v, std::int64_t n);

/// tanh at one tier. kNative falls back to kBatched when no native kernel
/// is available.
[[nodiscard]] ActivationKernel tanh_kernel(IsaTier tier);

/// GELU (tanh approximation) at one tier, with the same fallback.
[[nodiscard]] ActivationKernel gelu_kernel(IsaTier tier);

}  // namespace fp8q
