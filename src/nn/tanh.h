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
// gemm_kernel is, and each call runs through run_tier(). Two bodies live
// in tanh.cpp: the scalar reference, a transcription of fdlibm with its
// branches, and one branch-free vector body, run at 16 bytes at kBatched,
// 32 bytes at kNative (AVX2) and 64 bytes at kWide (AVX-512). Its range
// tests are single unsigned compares: GCC 12 scalarizes the 64-byte body
// around a select on the OR of two compares (docs/KERNELS.md). A tier the
// CPU lacks clamps down to one it runs.
#pragma once

#include <cstdint>

#include "core/cpu_dispatch.h"

namespace fp8q {

/// One tier's kernel: v[i] = f(v[i]) for i < n, in place, single-threaded;
/// f is tanh, or GELU when `gelu` is set.
struct ActivationKernel {
  IsaTier tier;
  bool gelu;

  void operator()(float* v, std::int64_t n) const;
};

/// tanh at one tier. A tier the CPU lacks runs the best one below it.
[[nodiscard]] inline ActivationKernel tanh_kernel(IsaTier tier) { return {tier, false}; }

/// GELU (tanh approximation) at one tier, with the same clamp.
[[nodiscard]] inline ActivationKernel gelu_kernel(IsaTier tier) { return {tier, true}; }

}  // namespace fp8q
