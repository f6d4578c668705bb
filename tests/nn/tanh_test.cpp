// The tanh kernel's contract (nn/tanh.h, docs/KERNELS.md): every dispatch
// tier gives the scalar replica's bits for tanh and GELU, on every path
// fdlibm's tanhf and expm1f take, on a stride of all floats and on every
// vector tail length; the replica gives glibc's tanhf bits; and
// ActivationOp's Tanh and GELU forwards follow the dispatched tier.
#include "nn/tanh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "core/cpu_dispatch.h"
#include "nn/elementwise.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

constexpr IsaTier kTiers[] = {IsaTier::kScalar, IsaTier::kBatched, IsaTier::kNative,
                               IsaTier::kWide};

/// Restores the tier override even when a test fails.
struct DispatchGuard {
  ~DispatchGuard() { reset_isa_tier(); }
};

float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
std::uint32_t to_bits(float f) { return std::bit_cast<std::uint32_t>(f); }

/// expm1f's reduction index for tanhf's argument 2|x| (s_expm1f.c).
int expm1f_k(float x) {
  return static_cast<int>(from_bits(0x3fb8aa3b) * (2.0f * x) + 0.5f);
}

// Where tanhf's path changes, as bit patterns of |x|: the thresholds of
// tanhf (2^-55, 1, 22); those of expm1f as tanhf reaches them, at |2x| =
// 2^-25, 0.5 ln2 and 1.5 ln2; and the first |x| whose k is 23 and 57.
constexpr std::uint32_t kSwitches[] = {0x24000000, 0x3f800000, 0x41b00000,
                                       0x32800000, 0x3e317219, 0x3f051592,
                                       0x40f98872, 0x419ca6b9};

std::vector<float> edge_inputs() {
  std::vector<std::uint32_t> bits;
  // The first, middle and last mantissa of every binade. With both signs
  // that holds ±0, the largest subnormals, ±FLT_MAX, ±Inf and NaNs.
  for (std::uint32_t e = 0; e < 256; ++e) {
    for (std::uint32_t m : {0x000000u, 0x400000u, 0x7fffffu}) bits.push_back(e << 23 | m);
  }
  // Both sides of every path switch.
  for (std::uint32_t s : kSwitches) {
    for (std::uint32_t d : {s - 2, s - 1, s, s + 1}) bits.push_back(d);
  }
  // The smallest subnormal, and quiet and signalling NaNs with payloads.
  for (std::uint32_t b : {0x00000001u, 0x7fc00001u, 0x7fc12345u, 0x7f800001u, 0x7fa5a5a5u,
                          0x7fbfffffu}) {
    bits.push_back(b);
  }
  std::vector<float> out;
  for (std::uint32_t b : bits) {
    out.push_back(from_bits(b));
    out.push_back(from_bits(b ^ 0x80000000u));
  }
  return out;
}

/// Every 4099th bit pattern: about a million floats over every binade.
std::vector<float> strided_inputs() {
  std::vector<float> out;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099) {
    out.push_back(from_bits(static_cast<std::uint32_t>(b)));
  }
  return out;
}

std::vector<float> apply(ActivationKernel kernel, std::vector<float> v) {
  kernel(v.data(), static_cast<std::int64_t>(v.size()));
  return v;
}

void expect_bitwise_equal(const std::vector<float>& got, const std::vector<float>& want,
                          const std::vector<float>& in, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(to_bits(got[i]), to_bits(want[i]))
        << what << " at input bits 0x" << std::hex << to_bits(in[i]);
  }
}

void expect_tiers_match_the_replica(const std::vector<float>& in, const std::string& what) {
  const auto want_tanh = apply(tanh_kernel(IsaTier::kScalar), in);
  const auto want_gelu = apply(gelu_kernel(IsaTier::kScalar), in);
  for (IsaTier tier : kTiers) {
    expect_bitwise_equal(apply(tanh_kernel(tier), in), want_tanh, in,
                         std::string("tanh ") + to_string(tier) + " " + what);
    expect_bitwise_equal(apply(gelu_kernel(tier), in), want_gelu, in,
                         std::string("gelu ") + to_string(tier) + " " + what);
  }
}

TEST(TanhKernel, SwitchPointsSitWhereTheirPathsChange) {
  EXPECT_EQ(expm1f_k(from_bits(0x40f98871)), 22);
  EXPECT_EQ(expm1f_k(from_bits(0x40f98872)), 23);
  EXPECT_EQ(expm1f_k(from_bits(0x419ca6b8)), 56);
  EXPECT_EQ(expm1f_k(from_bits(0x419ca6b9)), 57);
  // 2|x| steps over 0.5 ln2 (0x3eb17218) and 1.5 ln2 (0x3f851592).
  EXPECT_EQ(to_bits(2.0f * from_bits(0x3e317219)), 0x3eb17219u);
  EXPECT_EQ(to_bits(2.0f * from_bits(0x3f051592)), 0x3f851592u);
  EXPECT_EQ(to_bits(2.0f * from_bits(0x32800000)), 0x33000000u);
}

TEST(TanhKernel, EveryTierMatchesTheReplicaOnEveryPath) {
  expect_tiers_match_the_replica(edge_inputs(), "edge inputs");
}

TEST(TanhKernel, EveryTierMatchesTheReplicaOnAStrideOfAllFloats) {
  expect_tiers_match_the_replica(strided_inputs(), "every 4099th float");
}

TEST(TanhKernel, EveryTailLengthMatchesAndStaysInBounds) {
  // Values over every path: normal draws scaled past 22, and specials.
  Rng rng(5);
  Tensor draws = randn(rng, {17});
  draws.scale(8.0f);
  std::vector<float> in(draws.flat().begin(), draws.flat().end());
  in[3] = from_bits(0x7fc12345);
  in[9] = -0.0f;
  in[16] = from_bits(0xff800000);
  constexpr float kSentinel = 12345.0f;
  for (IsaTier tier : kTiers) {
    for (const bool gelu : {false, true}) {
      const ActivationKernel kernel = gelu ? gelu_kernel(tier) : tanh_kernel(tier);
      const ActivationKernel reference =
          gelu ? gelu_kernel(IsaTier::kScalar) : tanh_kernel(IsaTier::kScalar);
      for (std::int64_t n = 0; n <= 17; ++n) {
        // Start one float in, so the vector loads are unaligned too.
        std::vector<float> src(static_cast<std::size_t>(n) + 2, kSentinel);
        std::copy(in.begin(), in.begin() + n, src.begin() + 1);
        std::vector<float> got = src;
        std::vector<float> want = src;
        kernel(got.data() + 1, n);
        reference(want.data() + 1, n);
        const std::string what = std::string(gelu ? "gelu " : "tanh ") + to_string(tier) +
                                 " n=" + std::to_string(n);
        expect_bitwise_equal(got, want, src, what);
        EXPECT_EQ(got.front(), kSentinel) << what;
        EXPECT_EQ(got.back(), kSentinel) << what;
      }
    }
  }
}

// glibc 2.36's tanhf (fdlibm's algorithm) on inputs that take every path,
// as {input, output} bits. The replica must give these bits on any host,
// whatever its libm.
constexpr std::uint32_t kGlibcTanhf[][2] = {
    {0x00000000, 0x00000000}, {0x80000000, 0x80000000},  // ±0
    {0x00000001, 0x00000001}, {0x807fffff, 0x807fffff},  // subnormals
    {0x23ffffff, 0x23ffffff}, {0x24000000, 0x24000000},  // 2^-55
    {0xa4000000, 0xa4000000},
    {0x327fffff, 0x327fffff}, {0x32800000, 0x32800000},  // |2x| = 2^-25
    {0x3dcccccd, 0x3dcc1ebc},                            // expm1f k = 0
    {0x3e317218, 0x3e2fb0cd}, {0x3e317219, 0x3e2fb0cd},  // |2x| = 0.5 ln2
    {0xbe99999a, 0xbe9526ed}, {0x3effffff, 0x3eec9a9f},  // k = -1
    {0xbf000000, 0xbeec9a9f},
    {0x3f051591, 0x3ef486f8}, {0x3f051592, 0x3ef486f8},  // |2x| = 1.5 ln2
    {0x3f400000, 0x3f22991f}, {0xbf666666, 0xbf375f4c},  // k = -2, -3
    {0x3f7fffff, 0x3f42f7d5}, {0x3f800000, 0x3f42f7d6},  // |x| = 1
    {0xbf800001, 0xbf42f7d6},
    {0x3fc00000, 0x3f67b7cc}, {0x40000000, 0x3f76ca83},  // 3 <= k <= 22
    {0x40490fdb, 0x3f7f0bb0}, {0xc0a00000, 0xbf7ffa0d},
    {0x40f98871, 0x3f7ffffa}, {0xc0f98872, 0xbf7ffffa},  // k = 22 | 23
    {0x41200000, 0x3f800000}, {0x41800000, 0x3f800000},  // 23 <= k <= 56
    {0xc1980000, 0xbf800000},
    {0x419ca6b8, 0x3f800000}, {0xc19ca6b9, 0xbf800000},  // k = 56 | 57
    {0x419fffff, 0x3f800000}, {0x41afffff, 0x3f800000},  // k > 56
    {0x41b00000, 0x3f800000}, {0xc1b00001, 0xbf800000},  // |x| = 22
    {0x7f7fffff, 0x3f800000}, {0xff7fffff, 0xbf800000},  // ±FLT_MAX
    {0x7f800000, 0x3f800000}, {0xff800000, 0xbf800000},  // ±Inf
    {0x7fc00000, 0x7fc00000}, {0xffc12345, 0xffc12345},  // quiet NaNs
    {0x7f800001, 0x7fc00001}, {0xffbfffff, 0xffffffff},  // signalling NaNs
};

TEST(TanhKernel, ReplicaGivesGlibcTanhfBits) {
  std::vector<float> in;
  for (const auto& row : kGlibcTanhf) in.push_back(from_bits(row[0]));
  const auto got = apply(tanh_kernel(IsaTier::kScalar), in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(to_bits(got[i]), kGlibcTanhf[i][1]) << "input bits 0x" << std::hex
                                                  << kGlibcTanhf[i][0];
  }
}

TEST(TanhKernel, ReplicaGivesGlibcTanhfBitsOnAStrideOfAllFloats) {
  // FNV-1a over glibc 2.36 tanhf's output bits on every 4099th bit
  // pattern: a million points over every binade, where the table above
  // holds chosen ones. An error that moves only a few hundred of all 2^32
  // outputs (a one-ulp change to Q1 moves 246) can pass both; on glibc,
  // check_tanh_exhaustive's count against std::tanh shows it.
  const auto out = apply(tanh_kernel(IsaTier::kScalar), strided_inputs());
  std::uint64_t h = 14695981039346656037u;
  for (float y : out) h = (h ^ to_bits(y)) * 1099511628211u;
  EXPECT_EQ(h, 0x9ac048e45dab0e6eu);
}

TEST(TanhKernel, GeluIsTheTanhApproximationInItsOperationOrder) {
  const auto in = edge_inputs();
  const auto c = static_cast<float>(std::sqrt(2.0 / std::numbers::pi));
  std::vector<float> args;
  for (float v : in) args.push_back(c * (v + 0.044715f * v * v * v));
  const auto t = apply(tanh_kernel(IsaTier::kScalar), args);
  std::vector<float> want;
  for (std::size_t i = 0; i < in.size(); ++i) want.push_back(0.5f * in[i] * (1.0f + t[i]));
  expect_bitwise_equal(apply(gelu_kernel(IsaTier::kScalar), in), want, in, "gelu");
}

TEST(TanhKernel, ActivationOpForwardsFollowTheDispatchedTier) {
  DispatchGuard guard;
  Rng rng(7);
  Tensor x = randn(rng, {5, 41});
  x.scale(4.0f);
  const auto edges = edge_inputs();
  std::copy(edges.begin(), edges.begin() + 64, x.data());
  for (OpKind kind : {OpKind::kTanh, OpKind::kGelu}) {
    set_isa_tier(IsaTier::kScalar);
    const Tensor want = ActivationOp(kind).forward({&x, 1});
    for (IsaTier tier : kTiers) {
      set_isa_tier(tier);
      const Tensor got = ActivationOp(kind).forward({&x, 1});
      const std::vector<float> in(x.flat().begin(), x.flat().end());
      expect_bitwise_equal(std::vector<float>(got.flat().begin(), got.flat().end()),
                           std::vector<float>(want.flat().begin(), want.flat().end()), in,
                           std::string(to_string(kind)) + " forward at " + to_string(tier));
    }
  }
}

}  // namespace
}  // namespace fp8q
