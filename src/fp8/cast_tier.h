// Tier dispatch shared by the fake-quant casts (fp8_quantize_batch in
// fp8/cast_fast.h, int8_quantize_batch in fp8/int8.h; docs/KERNELS.md).
//
// Each cast has a per-element reference loop (kScalar) and one branch-free
// loop written to auto-vectorize. run_cast_tier picks between them on
// isa_tier() per call, as gemm_kernel and tanh_kernel are indexed: the
// vector loop runs at baseline width at kBatched, and at kNative it is
// inlined into an AVX2 function, so the same source is vectorized at 32
// bytes. The files that instantiate it build -O3 -ffp-contract=off
// (src/fp8/CMakeLists.txt).
#pragma once

#include <cstddef>

#include "core/cpu_dispatch.h"

namespace fp8q {

/// Elements per event-tally chunk. The vector loops count events in
/// 32-bit lane counters, which a chunk of at most 2^31 elements cannot
/// wrap; each chunk's counts are then folded into the 64-bit CastTally.
/// 64-bit counters in the loop would cost a widening per lane.
inline constexpr std::size_t kTallyChunk = std::size_t{1} << 31;

#if defined(__x86_64__)
/// kNative: `loop` compiled for AVX2 (and not FMA). flatten inlines the
/// whole loop here, so it is vectorized under this function's target;
/// run_cast_tier enters it only after the runtime probe.
template <class Loop>
[[gnu::target("avx2"), gnu::flatten]] void run_avx2(const Loop& loop) {
  loop();
}
#endif

/// Runs `scalar()` at kScalar and `vector()` at kBatched and kNative,
/// under AVX2 at kNative when the CPU has it.
template <class Scalar, class Vector>
void run_cast_tier(const Scalar& scalar, const Vector& vector) {
  switch (isa_tier()) {
    case IsaTier::kScalar:
      return scalar();
    case IsaTier::kNative:
#if defined(__x86_64__)
      if (isa_native_available()) return run_avx2(vector);
#endif
      [[fallthrough]];
    case IsaTier::kBatched:
      break;
  }
  vector();
}

}  // namespace fp8q
