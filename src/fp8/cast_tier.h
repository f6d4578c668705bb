// Tier dispatch shared by the fake-quant casts (fp8_quantize_batch in
// fp8/cast_fast.h, int8_quantize_batch in fp8/int8.h; docs/KERNELS.md).
//
// Each cast has a per-element reference loop (kScalar) and one branch-free
// loop written to auto-vectorize. run_cast_tier picks between them on
// isa_tier() per call through run_tier (core/cpu_dispatch.h), as the GEMM
// and tanh kernels do: the vector loop runs at baseline width at kBatched,
// and at kNative and kWide it is inlined into that tier's AVX2 or
// AVX-512 wrapper, so the same source is vectorized at 32 or 64 bytes.
// The files that instantiate it build -O3 -ffp-contract=off
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

/// Runs `scalar()` at kScalar and `vector()` at every vector tier, under
/// that tier's target.
template <class Scalar, class Vector>
void run_cast_tier(const Scalar& scalar, const Vector& vector) {
  run_tier(isa_tier(), scalar, [&](auto /*width*/) { vector(); });
}

}  // namespace fp8q
