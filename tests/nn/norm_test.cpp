// LayerNorm's row statistics come in dispatch tiers (nn/norm.h,
// docs/KERNELS.md): every vector tier puts one row in each double lane and
// sums it in the reference's order, so its outputs must equal the scalar
// tier's bit for bit, on every row count around a block of lanes, every
// width around a vector, and on values that expose any reordering: 1e+-30
// magnitudes, +-0, subnormals, and rows holding Inf or NaN.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "nn/norm.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

/// Restores the tier override even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() { reset_isa_tier(); }
};

/// One element: mostly unit-scale values, mixed with 1e+-30 magnitudes,
/// 150x outliers, +-0 and subnormals.
float mixed_value(Rng& rng) {
  const float v = rng.normal();
  switch (rng.next() % 10) {
    case 0: return v * 1e30f;
    case 1: return v * 1e-30f;
    case 2: return v * 150.0f;
    case 3: return rng.next() % 2 == 0 ? 0.0f : -0.0f;
    case 4: return std::bit_cast<float>(static_cast<std::uint32_t>(rng.next() % 0x00800000u) |
                                        (rng.next() % 2 == 0 ? 0u : 0x80000000u));
    default: return v;
  }
}

Tensor mixed_rows(Rng& rng, std::int64_t rows, std::int64_t d) {
  Tensor x({rows, d});
  for (float& v : x.flat()) v = mixed_value(rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto column = [&] { return static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(d)); };
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * d;
    // Every third row: unit values around an exactly cancelling pair +-H,
    // H ~ 1e30. Summed in index order, H absorbs every value before the
    // pair closes, so the mean is the sum of the values after it: any
    // other order gives another mean.
    const std::int64_t c1 = column();
    const std::int64_t c2 = column();
    if (r % 3 == 1 && c1 != c2) {
      for (std::int64_t i = 0; i < d; ++i) row[i] = rng.normal();
      row[c1] = 1e30f * (1.0f + std::abs(rng.normal()));
      row[c2] = -row[c1];
    }
    // Some rows hold an Inf, both Infs, or a NaN, at varying columns.
    const std::int64_t c = column();
    if (r % 5 == 3) row[c] = inf;
    if (r % 7 == 4) row[c] = nan;
    if (r % 11 == 5 && d > 1) {
      row[0] = -inf;
      row[d - 1] = inf;
    }
  }
  return x;
}

std::vector<std::uint32_t> bits_of(const Tensor& t) {
  std::vector<std::uint32_t> bits;
  for (float v : t.flat()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

TEST(LayerNormTiers, EveryTierMatchesTheScalarTierBitForBit) {
  DispatchGuard guard;
  Rng rng(2024);
  for (const std::int64_t d : {1, 3, 8, 37, 48, 64}) {
    Tensor gamma({d});
    Tensor beta({d});
    for (float& v : gamma.flat()) v = rng.normal();
    for (float& v : beta.flat()) v = 0.1f * rng.normal();
    // A zero beta keeps outputs of 1e-30 scale visible instead of
    // rounding them into beta.
    for (LayerNormOp op : {LayerNormOp(gamma, beta), LayerNormOp(gamma, Tensor({d}))}) {
      for (const std::int64_t rows : {1, 7, 8, 9, 16, 17, 1000}) {
        const Tensor x = mixed_rows(rng, rows, d);
        const std::array<const Tensor*, 1> in{&x};
        set_isa_tier(IsaTier::kScalar);
        const std::vector<std::uint32_t> want = bits_of(op.forward(in));
        for (IsaTier tier : {IsaTier::kBatched, IsaTier::kNative, IsaTier::kWide}) {
          set_isa_tier(tier);
          const std::vector<std::uint32_t> got = bits_of(op.forward(in));
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << to_string(tier) << " rows " << rows << " d " << d
                                       << " element " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fp8q
