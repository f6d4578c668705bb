#include "nn/tanh.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

namespace fp8q {
namespace {

// fdlibm's constants (s_expm1f.c), as the bits libm's rodata holds.
const float kLn2Hi = std::bit_cast<float>(0x3f317180u);
const float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
const float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
const float kQ1 = std::bit_cast<float>(0xbd088889u);
const float kQ2 = std::bit_cast<float>(0x3ad00d01u);
const float kQ3 = std::bit_cast<float>(0xb8a670cdu);
const float kQ4 = std::bit_cast<float>(0x36867e54u);
const float kQ5 = std::bit_cast<float>(0xb457edbbu);

// GELU's sqrt(2 / pi), rounded to float once, as ActivationOp always did.
const float kGeluC = static_cast<float>(std::sqrt(2.0 / std::numbers::pi));

// Bit patterns of |x| where fdlibm switches paths.
constexpr std::int32_t kTanhTiny = 0x24000000;      // 2^-55
constexpr std::int32_t kTanhOne = 0x3f800000;       // 1
constexpr std::int32_t kTanhHuge = 0x41b00000;      // 22
constexpr std::int32_t kInfBits = 0x7f800000;       // Inf
constexpr std::int32_t kExpm1Tiny = 0x33000000;     // 2^-25
constexpr std::int32_t kHalfLn2 = 0x3eb17218;       // 0.5 ln2
constexpr std::int32_t kThreeHalfLn2 = 0x3f851592;  // 1.5 ln2

// ---------------------------------------------------------------------------
// kScalar tier: the reference every other tier is tested bit-equal
// against. A transcription of fdlibm with its branches, restricted to the
// arguments tanhf passes to expm1f: x in (-2, -2^-54] or [2, 44). So
// expm1f's |x| >= 27 ln2 filter (which returns only for x < 0 there) and
// its k == 1 case (0 < x < 1.5 ln2) are never reached and left out.
// ---------------------------------------------------------------------------

/// y with k added to its exponent field (fdlibm's SET_FLOAT_WORD(y, i + (k << 23))).
float add_exponent(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                              (static_cast<std::uint32_t>(k) << 23));
}

float expm1f_for_tanh(float x) {
  const std::int32_t hx = std::bit_cast<std::int32_t>(x) & 0x7fffffff;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > kHalfLn2) {
    float hi = x + kLn2Hi;  // below 1.5 ln2, where only x < 0 arrives
    float lo = -kLn2Lo;
    k = -1;
    if (hx >= kThreeHalfLn2) {
      k = static_cast<std::int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
      const auto t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < kExpm1Tiny) {
    return x;  // fdlibm's x - ((huge + x) - (huge + x))
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return add_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {
    const float t1 = std::bit_cast<float>(0x3f800000 - (0x1000000 >> k));  // 1 - 2^-k
    return add_exponent(t1 - (e - x), k);
  }
  const float t2 = std::bit_cast<float>((0x7f - k) << 23);  // 2^-k
  return add_exponent((x - (e + t2)) + 1.0f, k);
}

float tanh_reference(float x) {
  const std::int32_t jx = std::bit_cast<std::int32_t>(x);
  const std::int32_t ix = jx & 0x7fffffff;
  if (ix >= kInfBits) return jx >= 0 ? 1.0f / x + 1.0f : 1.0f / x - 1.0f;  // ±1, NaN
  if (ix == 0) return x;
  if (ix < kTanhTiny) return x * (1.0f + x);
  float z = 1.0f;  // |x| >= 22: fdlibm's 1 - 1e-30, which rounds to 1
  if (ix < kTanhHuge) {
    if (ix >= kTanhOne) {
      const float t = expm1f_for_tanh(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1f_for_tanh(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return jx >= 0 ? z : -z;
}

template <bool kGelu>
void scalar_tier(float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = v[i];
    v[i] = kGelu ? 0.5f * x * (1.0f + tanh_reference(kGeluC * (x + 0.044715f * x * x * x)))
                 : tanh_reference(x);
  }
}

// ---------------------------------------------------------------------------
// The vector tiers: one branch-free body over a GCC vector-extension type
// V of 16 bytes (kBatched: SSE2 on x86-64, NEON on AArch64), 32 bytes
// (kNative under AVX2) or 64 bytes (kWide under AVX-512). Every lane
// computes every path of the reference with the same operations, and a
// mask per path picks each lane's result. Lanes that fdlibm returns early
// (±0, |x| < 2^-55, |x| >= 22, Inf, NaN) run the |x| = 1 path on the
// side, so every lane converts an in-range float to int. This TU is
// compiled -ffp-contract=off, so no multiply-add fuses into an FMA.
//
// A select on the OR of two lane compares, (a < lo) | (a >= hi), makes
// GCC 12 scalarize the 64-byte body inlined under run_avx512 (vpextrd /
// vpinsrd / setg / cmov per lane), which ran 2.3-2.5x slower than the
// 32-byte one; nested selects fuse back into the OR. So each range test
// is one unsigned compare, (unsigned)(a - lo) >= hi - lo, which GCC keeps
// in vector registers. Keep them that way: CI fails on a vpextrd or
// vpinsrd in this object (docs/KERNELS.md).
// ---------------------------------------------------------------------------

/// kBytes / 4 floats in one vector.
template <int kBytes>
struct VecOf {
  // A typedef, not a using: GCC drops a dependent vector_size from an
  // alias declaration and leaves a plain float.
  typedef float type __attribute__((vector_size(kBytes)));
};

// Vectors pass by reference: a 32-byte vector passed or returned by value
// changes the ABI under AVX (-Wpsabi). Casts between same-size vector
// types reinterpret the bits; comparisons give 0 / -1 lane masks of the
// matching int32 vector type.

/// y = expm1f(a) lane by lane, for a in (-2, -2^-54] or [2, 44).
template <class V>
inline void expm1_lanes(V& y, const V& a) {
  using VI = decltype(a < a);
  typedef std::uint32_t VU __attribute__((vector_size(sizeof(V))));
  const VI hx = (VI)a & 0x7fffffff;
  const V half = (VI)a < 0 ? V{} - 0.5f : V{} + 0.5f;
  VI k = __builtin_convertvector(kInvLn2 * a + half, VI);
  k = hx < kThreeHalfLn2 ? VI{} - 1 : k;  // only a < 0 gets here
  k = hx > kHalfLn2 ? k : VI{};
  // With t = k, hi = a - t * ln2_hi and lo = t * ln2_lo also give the
  // k = -1 case's a + ln2_hi and -ln2_lo, and leave a unreduced (c = 0)
  // at k = 0.
  const V t = __builtin_convertvector(k, V);
  const V hi = a - t * kLn2Hi;
  const V lo = t * kLn2Lo;
  const V x = hi - lo;
  const V c = (hi - x) - lo;

  const V hfx = 0.5f * x;
  const V hxs = x * hfx;
  const V r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V t3 = 3.0f - r1 * hfx;
  const V e0 = hxs * ((r1 - t3) / (6.0f - x * t3));
  const V e = (x * (e0 - c) - c) - hxs;
  // 1 - 2^-k as 1 - bits((0x7f - k) << 23): the same bits as the
  // reference's bits(0x3f800000 - (0x1000000 >> k)) for 1 <= k <= 22,
  // with no per-lane variable shift, which SSE2 lacks.
  const V two_mk = (V)((0x7f - k) << 23);
  const VI kexp = k << 23;
  const V y_far = (V)((VI)(1.0f - (e - x)) + kexp) - 1.0f;             // k <= -2, k > 56
  const V y_mid = (V)((VI)((1.0f - two_mk) - (e - x)) + kexp);         // 2 <= k <= 22
  const V y_high = (V)((VI)((x - (e + two_mk)) + 1.0f) + kexp);        // 23 <= k <= 56
  y = k < 23 ? y_mid : y_high;
  y = (VU)(k + 1) > 57u ? y_far : y;  // k <= -2 or k > 56
  y = k == -1 ? 0.5f * (x - e) - 0.5f : y;
  y = k == 0 ? x - (x * e0 - hxs) : y;
  y = hx < kExpm1Tiny ? a : y;
}

/// x = tanhf(x) lane by lane.
template <class V>
inline void tanh_lanes(V& x) {
  using VI = decltype(x < x);
  typedef std::uint32_t VU __attribute__((vector_size(sizeof(V))));
  const VI jx = (VI)x;
  const VI ix = jx & 0x7fffffff;
  // ix < kTanhTiny or ix >= kTanhHuge
  const VI early = (VU)(ix - kTanhTiny) >= std::uint32_t{kTanhHuge - kTanhTiny};
  const V ax = (V)(early ? VI{} + kTanhOne : ix);
  const VI ge1 = (VI)ax >= kTanhOne;
  V a = 2.0f * ax;
  a = ge1 ? a : -a;
  V t;
  expm1_lanes(t, a);
  // 1 - 2 / (t + 2) for |x| >= 1 and -t / (t + 2) below share a divide.
  const V q = (ge1 ? V{} + 2.0f : -t) / (t + 2.0f);
  V z = ge1 ? 1.0f - q : q;
  z = ix >= kTanhHuge ? V{} + 1.0f : z;
  z = jx >= 0 ? z : -z;
  z = ix < kTanhTiny ? x * (1.0f + x) : z;  // x itself at ±0
  const V r = 1.0f / x;
  x = ix >= kInfBits ? (jx >= 0 ? r + 1.0f : r - 1.0f) : z;
}

template <class V, bool kGelu>
inline void activate_lanes(V& v) {
  if constexpr (kGelu) {
    V x = kGeluC * (v + 0.044715f * v * v * v);
    tanh_lanes(x);
    v = 0.5f * v * (1.0f + x);
  } else {
    tanh_lanes(v);
  }
}

template <class V, bool kGelu>
void vector_tier(float* v, std::int64_t n) {
  constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    V x;
    std::memcpy(&x, v + i, sizeof(V));
    activate_lanes<V, kGelu>(x);
    std::memcpy(v + i, &x, sizeof(V));
  }
  if (i < n) {  // the tail runs as one zero-padded vector
    const auto bytes = static_cast<std::size_t>(n - i) * sizeof(float);
    V x{};
    std::memcpy(&x, v + i, bytes);
    activate_lanes<V, kGelu>(x);
    std::memcpy(v + i, &x, bytes);
  }
}

template <bool kGelu>
void activate_at(IsaTier tier, float* v, std::int64_t n) {
  run_tier(
      tier, [&] { scalar_tier<kGelu>(v, n); },
      [&](auto width) { vector_tier<typename VecOf<decltype(width)::value>::type, kGelu>(v, n); });
}

}  // namespace

void ActivationKernel::operator()(float* v, std::int64_t n) const {
  if (gelu) {
    activate_at<true>(tier, v, n);
  } else {
    activate_at<false>(tier, v, n);
  }
}

}  // namespace fp8q
