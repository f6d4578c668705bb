// Unit tests for the INT8 baseline quantizer.
#include "fp8/int8.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "obs/counters.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(Int8Symmetric, ParamsFromAbsmax) {
  const Int8Params p = int8_symmetric_params(127.0f);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
  EXPECT_EQ(p.zero_point, 0);
  EXPECT_EQ(p.qmin, -127);
  EXPECT_EQ(p.qmax, 127);
}

TEST(Int8Symmetric, DegenerateAbsmaxFallsBack) {
  EXPECT_FLOAT_EQ(int8_symmetric_params(0.0f).scale, 1.0f);
  EXPECT_FLOAT_EQ(int8_symmetric_params(-1.0f).scale, 1.0f);
  EXPECT_FLOAT_EQ(int8_symmetric_params(std::numeric_limits<float>::infinity()).scale, 1.0f);
}

TEST(Int8Symmetric, RoundTripExactGridPoints) {
  const Int8Params p = int8_symmetric_params(127.0f);  // scale 1
  for (int q = -127; q <= 127; ++q) {
    const auto f = static_cast<float>(q);
    EXPECT_FLOAT_EQ(int8_quantize(f, p), f);
  }
}

TEST(Int8Symmetric, SaturatesAtRange) {
  const Int8Params p = int8_symmetric_params(1.0f);
  EXPECT_FLOAT_EQ(int8_quantize(100.0f, p), 1.0f);
  EXPECT_FLOAT_EQ(int8_quantize(-100.0f, p), -1.0f);
}

TEST(Int8Symmetric, UniformStepSize) {
  // INT8's fixed step means the grid spacing is constant -- the property
  // that makes outliers stretch the grid (paper section 2).
  const Int8Params p = int8_symmetric_params(6.0f);
  const float step = p.scale;
  float prev = int8_decode(static_cast<std::int8_t>(-127), p);
  for (int q = -126; q <= 127; ++q) {
    const float cur = int8_decode(static_cast<std::int8_t>(q), p);
    EXPECT_NEAR(cur - prev, step, 1e-6f);
    prev = cur;
  }
}

TEST(Int8Asymmetric, ZeroIsExactlyRepresentable) {
  const Int8Params p = int8_asymmetric_params(-0.3f, 5.7f);
  EXPECT_FLOAT_EQ(int8_quantize(0.0f, p), 0.0f);
}

TEST(Int8Asymmetric, CoversRangeEndpoints) {
  const Int8Params p = int8_asymmetric_params(-1.0f, 3.0f);
  EXPECT_NEAR(int8_quantize(-1.0f, p), -1.0f, p.scale);
  EXPECT_NEAR(int8_quantize(3.0f, p), 3.0f, p.scale);
  EXPECT_FLOAT_EQ(int8_quantize(10.0f, p), int8_decode(127, p));
}

TEST(Int8Asymmetric, AllPositiveRangeUsesFullGrid) {
  // ReLU-style [0, max] range: zero point at qmin.
  const Int8Params p = int8_asymmetric_params(0.0f, 2.55f);
  EXPECT_EQ(p.zero_point, -128);
  EXPECT_NEAR(p.scale, 0.01f, 1e-6f);
}

TEST(Int8Quantize, RoundToNearestEvenTies) {
  const Int8Params p = int8_symmetric_params(127.0f);  // scale 1
  EXPECT_FLOAT_EQ(int8_quantize(0.5f, p), 0.0f);   // tie to even 0
  EXPECT_FLOAT_EQ(int8_quantize(1.5f, p), 2.0f);   // tie to even 2
  EXPECT_FLOAT_EQ(int8_quantize(2.5f, p), 2.0f);   // tie to even 2
  EXPECT_FLOAT_EQ(int8_quantize(-0.5f, p), 0.0f);
}

TEST(Int8Quantize, NanMapsToZeroPoint) {
  const Int8Params p = int8_symmetric_params(4.0f);
  EXPECT_FLOAT_EQ(int8_quantize(std::numeric_limits<float>::quiet_NaN(), p), 0.0f);
}

TEST(Int8Quantize, VectorMatchesScalar) {
  const Int8Params p = int8_asymmetric_params(-2.0f, 6.0f);
  std::vector<float> in = {-2.0f, 0.0f, 3.3f, 6.0f, 100.0f, -5.0f};
  std::vector<float> out(in.size());
  int8_quantize(in, out, p);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], int8_quantize(in[i], p));
  }
}

TEST(Int8Quantize, OutlierStretchesGrid) {
  // The headline INT8 weakness: one outlier at 6.0 doubles the step size
  // versus a clean absmax of 3.0, coarsening everything near zero.
  const Int8Params clean = int8_symmetric_params(3.0f);
  const Int8Params stretched = int8_symmetric_params(6.0f);
  EXPECT_GT(stretched.scale, clean.scale * 1.9f);
  // A small value is represented strictly worse under the stretched grid.
  const float x = 0.011f;
  const float err_clean = std::fabs(int8_quantize(x, clean) - x);
  const float err_stretched = std::fabs(int8_quantize(x, stretched) - x);
  EXPECT_LE(err_clean, err_stretched);
}

TEST(Int8Params, UnderflowingScaleFallsBackToOne) {
  // A range so small that dividing it into steps underflows to scale 0
  // would make every encode compute 0/0; it falls back to scale 1, like an
  // empty range.
  for (const Int8Params& p :
       {int8_symmetric_params(1e-44f), int8_asymmetric_params(0.0f, 1e-44f),
        int8_asymmetric_params(-1e-44f, 0.0f), int8_asymmetric_params(-1e-44f, 1e-44f)}) {
    EXPECT_EQ(p.scale, 1.0f);
    EXPECT_GE(p.zero_point, p.qmin);
    EXPECT_LE(p.zero_point, p.qmax);
    const std::vector<float> in = {0.0f, 1e-45f, -1e-45f, 1e-44f, -1e-44f};
    std::vector<float> out(in.size());
    int8_quantize_batch(in, out, p);
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(bits_of(out[i]), bits_of(int8_quantize(in[i], p))) << in[i];
    }
  }
}

// ---- The batch kernel against the scalar reference ------------------------

/// Parameter sets the kernel is checked under: symmetric and asymmetric,
/// zero points at 0, at either end of the code range and in between, an
/// exact power-of-two scale, a subnormal scale, and the default grid.
std::vector<Int8Params> kernel_param_sets() {
  return {int8_symmetric_params(1.0f),          int8_symmetric_params(300.0f),
          int8_symmetric_params(31.75f),        int8_symmetric_params(1e-40f),
          int8_asymmetric_params(-2.0f, 6.0f),  int8_asymmetric_params(0.0f, 2.55f),
          int8_asymmetric_params(-5.0f, 0.0f),  int8_asymmetric_params(-0.3f, 5.7f),
          Int8Params{}};
}

/// Inputs from every class the kernel must get right: uniform and normal
/// values, raw bit patterns (NaN payloads and subnormals included), every
/// half-code tie of `p` with its +/-1-ulp neighbours, and the specials.
std::vector<float> kernel_inputs(const Int8Params& p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> in;
  for (int i = 0; i < 20000; ++i) in.push_back(rng.uniform(-300.0f, 300.0f));
  for (int i = 0; i < 20000; ++i) in.push_back(rng.normal(0.0f, 2.0f));
  for (int i = 0; i < 40000; ++i) {
    in.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng.next())));
  }
  for (int c = p.qmin - 2; c <= p.qmax + 2; ++c) {
    const float tie =
        (static_cast<float>(c) + 0.5f - static_cast<float>(p.zero_point)) * p.scale;
    for (float x : {tie, std::nextafter(tie, -kInf), std::nextafter(tie, kInf)}) {
      in.push_back(x);
      in.push_back(-x);
    }
  }
  const float specials[] = {0.0f,    -0.0f,   kInf,    -kInf,   kNaN,     -kNaN,
                            1e38f,   -1e38f,  1e-45f,  -1e-45f, 1e-44f,   -1e-44f,
                            1e-40f,  -1e-40f, std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::signaling_NaN()};
  in.insert(in.end(), std::begin(specials), std::end(specials));
  return in;
}

/// The event rule, restated on its own rounding: saturated = a non-NaN
/// element whose rounded code falls outside [qmin, qmax]; flushed = any
/// other nonzero, non-NaN element that decodes to +/-0.
CastTally reference_tally(std::span<const float> in, const Int8Params& p) {
  CastTally t;
  for (const float x : in) {
    ++t.quantized;
    if (std::isnan(x)) continue;
    const float rounded = std::nearbyint(x / p.scale + static_cast<float>(p.zero_point));
    if (rounded < static_cast<float>(p.qmin) || rounded > static_cast<float>(p.qmax)) {
      ++t.saturated;
    } else if (x != 0.0f && int8_quantize(x, p) == 0.0f) {
      ++t.flushed;
    }
  }
  return t;
}

void expect_same_tally(const CastTally& got, const CastTally& want) {
  EXPECT_EQ(got.quantized, want.quantized);
  EXPECT_EQ(got.saturated, want.saturated);
  EXPECT_EQ(got.flushed, want.flushed);
}

// Every Int8Batch case runs at every IsaTier (core/cpu_dispatch.h);
// without AVX2, kNative runs the batched tier.
class Int8Batch : public ::testing::TestWithParam<IsaTier> {
 protected:
  void SetUp() override { set_isa_tier(GetParam()); }
  void TearDown() override { reset_isa_tier(); }
};

TEST_P(Int8Batch, MatchesScalarReferenceBitForBit) {
  std::uint64_t seed = 1;
  for (const Int8Params& p : kernel_param_sets()) {
    const auto in = kernel_inputs(p, seed++);
    std::vector<float> counted(in.size());
    std::vector<float> plain(in.size());
    CastTally tally;
    int8_quantize_batch(in, counted, p, &tally);
    int8_quantize_batch(in, plain, p);
    for (size_t i = 0; i < in.size(); ++i) {
      const std::uint32_t want = bits_of(int8_quantize(in[i], p));
      ASSERT_EQ(bits_of(counted[i]), want)
          << "x bits " << bits_of(in[i]) << " scale " << p.scale << " zp " << p.zero_point;
      ASSERT_EQ(bits_of(plain[i]), want) << "x bits " << bits_of(in[i]);
    }
    expect_same_tally(tally, reference_tally(in, p));
  }
}

TEST_P(Int8Batch, SpanCallMatchesKernelAndCountsAtEveryThreadCount) {
  const bool counting = counters_enabled();
  set_counters_enabled(true);
  std::uint64_t seed = 100;
  for (const Int8Params& p : kernel_param_sets()) {
    const auto in = kernel_inputs(p, seed++);
    std::vector<float> want(in.size());
    CastTally tally;
    int8_quantize_batch(in, want, p, &tally);
    for (int threads : {1, 3}) {
      set_num_threads(threads);
      std::vector<float> got(in.size());
      const CounterSnapshot before = counters_snapshot();
      int8_quantize(in, got, p);
      const CounterSnapshot delta = counters_snapshot().since(before);
      for (size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << "threads " << threads << " i " << i;
      }
      EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kQuantized), tally.quantized);
      EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kSaturated), tally.saturated);
      EXPECT_EQ(delta.get(ObsFormat::kInt8, ObsEvent::kFlushedToZero), tally.flushed);
    }
  }
  set_num_threads(0);
  set_counters_enabled(counting);
}

TEST_P(Int8Batch, InPlaceMatchesOutOfPlace) {
  const Int8Params p = int8_asymmetric_params(-2.0f, 6.0f);
  const auto in = kernel_inputs(p, 7);
  std::vector<float> out(in.size());
  int8_quantize_batch(in, out, p);
  std::vector<float> buf = in;
  int8_quantize_batch(buf, buf, p);
  std::vector<float> span_buf = in;
  int8_quantize(span_buf, span_buf, p);
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(bits_of(buf[i]), bits_of(out[i])) << i;
    ASSERT_EQ(bits_of(span_buf[i]), bits_of(out[i])) << i;
  }
}

TEST_P(Int8Batch, TallyCountsEvents) {
  // Symmetric, scale 1/127: the two finite values beyond 1 and both
  // infinities saturate; 1e-4 and -1e-3 round to code 0 and flush. Zero,
  // -0 and NaN count in neither bucket, and 0.5 lands on code 64.
  const std::vector<float> in = {0.0f,  0.5f, 2.0f, -3.0f, kInf, -kInf,
                                 1e-4f, -1e-3f, kNaN, -0.0f};
  std::vector<float> out(in.size());
  CastTally tally;
  int8_quantize_batch(in, out, int8_symmetric_params(1.0f), &tally);
  EXPECT_EQ(tally.quantized, in.size());
  EXPECT_EQ(tally.saturated, 4u);
  EXPECT_EQ(tally.flushed, 2u);
}

TEST_P(Int8Batch, SaturatingOntoTheZeroPointIsNotAFlush) {
  // A [0, 2.55] range puts the zero point at qmin. -1 rounds below qmin,
  // so it saturates onto code -128 and decodes to 0: one saturation, no
  // flush. -0.004 rounds to code -128 itself: a flush. NaN decodes to
  // code 0, which is 128 steps above real 0 here.
  const Int8Params p = int8_asymmetric_params(0.0f, 2.55f);
  ASSERT_EQ(p.zero_point, p.qmin);
  const std::vector<float> in = {-1.0f, -0.004f, kNaN};
  std::vector<float> out(in.size());
  CastTally tally;
  int8_quantize_batch(in, out, p, &tally);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(bits_of(out[2]), bits_of(int8_decode(0, p)));
  EXPECT_GT(out[2], 1.0f);
  EXPECT_EQ(tally.saturated, 1u);
  EXPECT_EQ(tally.flushed, 1u);
}

TEST_P(Int8Batch, SpanCallRejectsParamsOutsideTheKernelPrecondition) {
  std::vector<float> buf(4, 1.0f);
  auto rejects = [&](auto&& edit) {
    Int8Params p;
    edit(p);
    EXPECT_THROW(int8_quantize(buf, buf, p), std::invalid_argument)
        << "scale " << p.scale << " zp " << p.zero_point << " [" << p.qmin << ", " << p.qmax
        << "]";
  };
  rejects([](Int8Params& p) { p.scale = 0.0f; });
  rejects([](Int8Params& p) { p.scale = -1.0f; });
  rejects([](Int8Params& p) { p.scale = kInf; });
  rejects([](Int8Params& p) { p.scale = kNaN; });
  rejects([](Int8Params& p) { p.qmin = 1; });
  rejects([](Int8Params& p) { p.qmax = -1; });
  rejects([](Int8Params& p) { p.qmin = -129; });
  rejects([](Int8Params& p) { p.qmax = 128; });
  rejects([](Int8Params& p) { p.zero_point = 128; });
  rejects([](Int8Params& p) {
    p.qmin = -127;
    p.zero_point = -128;
  });
  EXPECT_NO_THROW(int8_quantize(buf, buf, Int8Params{}));
}

TEST_P(Int8Batch, EveryTierMatchesTheScalarTierOnShortSpans) {
  // Spans of 0-17 elements from unaligned starts across every input
  // class: the vector tiers' loop remainders and the counted and uncounted
  // loops must give the scalar tier's bits and tally, in and out of place.
  std::uint64_t seed = 200;
  for (const Int8Params& p : kernel_param_sets()) {
    const auto in = kernel_inputs(p, seed++);
    for (std::size_t len = 0; len <= 17; ++len) {
      for (std::size_t start = in.size() % 1009; start + len <= in.size(); start += 1009) {
        const auto src = std::span<const float>(in).subspan(start, len);
        set_isa_tier(IsaTier::kScalar);
        std::vector<float> want(len);
        CastTally want_tally;
        int8_quantize_batch(src, want, p, &want_tally);

        set_isa_tier(GetParam());
        std::vector<float> plain(len);
        std::vector<float> counted(len);
        std::vector<float> inplace(src.begin(), src.end());
        CastTally tally;
        CastTally inplace_tally;
        int8_quantize_batch(src, plain, p);
        int8_quantize_batch(src, counted, p, &tally);
        int8_quantize_batch(inplace, inplace, p, &inplace_tally);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(bits_of(plain[i]), bits_of(want[i])) << "start " << start << " i " << i;
          ASSERT_EQ(bits_of(counted[i]), bits_of(want[i])) << "start " << start << " i " << i;
          ASSERT_EQ(bits_of(inplace[i]), bits_of(want[i])) << "start " << start << " i " << i;
        }
        expect_same_tally(tally, want_tally);
        expect_same_tally(inplace_tally, want_tally);
        ASSERT_EQ(want_tally.quantized, len);
      }
    }
  }
}

TEST_P(Int8Batch, EveryTierMatchesTheScalarTierOnALongSpan) {
  std::uint64_t seed = 300;
  for (const Int8Params& p : kernel_param_sets()) {
    const auto in = kernel_inputs(p, seed++);
    set_isa_tier(IsaTier::kScalar);
    std::vector<float> want(in.size());
    CastTally want_tally;
    int8_quantize_batch(in, want, p, &want_tally);
    set_isa_tier(GetParam());
    std::vector<float> got(in.size());
    CastTally tally;
    int8_quantize_batch(in, got, p, &tally);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(bits_of(got[i]), bits_of(want[i])) << "x bits " << bits_of(in[i]);
    }
    expect_same_tally(tally, want_tally);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, Int8Batch,
                         ::testing::Values(IsaTier::kScalar, IsaTier::kBatched,
                                           IsaTier::kNative),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

}  // namespace
}  // namespace fp8q
