#include "quant/qconfig.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fp8q {
namespace {

TEST(DTypeHelpers, Fp8Classification) {
  EXPECT_TRUE(is_fp8(DType::kE5M2));
  EXPECT_TRUE(is_fp8(DType::kE4M3));
  EXPECT_TRUE(is_fp8(DType::kE3M4));
  EXPECT_FALSE(is_fp8(DType::kINT8));
  EXPECT_FALSE(is_fp8(DType::kFP32));
}

TEST(DTypeHelpers, SpecMapping) {
  EXPECT_FLOAT_EQ(fp8_spec(DType::kE4M3).max_value(), 448.0f);
  EXPECT_FLOAT_EQ(fp8_spec(DType::kE3M4).max_value(), 30.0f);
  EXPECT_EQ(fp8_kind(DType::kE5M2), Fp8Kind::E5M2);
  EXPECT_THROW((void)fp8_spec(DType::kINT8), std::invalid_argument);
  EXPECT_THROW((void)fp8_kind(DType::kFP32), std::invalid_argument);
}

TEST(DTypeHelpers, Names) {
  EXPECT_EQ(to_string(DType::kE4M3), "E4M3");
  EXPECT_EQ(to_string(DType::kINT8), "INT8");
  EXPECT_EQ(to_string(CalibMethod::kAbsMax), "max");
  EXPECT_EQ(to_string(CalibMethod::kKlDivergence), "kl");
}

TEST(SchemeConfig, StandardFp8Defaults) {
  const auto cfg = standard_fp8_scheme(DType::kE4M3);
  EXPECT_EQ(cfg.act_dtype, DType::kE4M3);
  EXPECT_EQ(cfg.weight_dtype, DType::kE4M3);
  EXPECT_FALSE(cfg.dynamic_activations);
  EXPECT_FALSE(cfg.quantize_extended_ops);
  EXPECT_TRUE(cfg.skip_first_last);
  EXPECT_EQ(cfg.act_calib, CalibMethod::kAbsMax);
  EXPECT_THROW((void)standard_fp8_scheme(DType::kINT8), std::invalid_argument);
}

TEST(SchemeConfig, E5M2ForcedStatic) {
  // Paper: E5M2 always uses direct quantization (Table 2 has only a
  // "Direct" row for E5M2).
  const auto cfg = standard_fp8_scheme(DType::kE5M2, /*dynamic=*/true);
  EXPECT_FALSE(cfg.dynamic_activations);
  EXPECT_EQ(cfg.label(), "E5M2/direct");
}

TEST(SchemeConfig, MixedFormatsMatchPaper) {
  // Section 3.2: E4M3 activations, E3M4 weights.
  const auto cfg = mixed_fp8_scheme();
  EXPECT_EQ(cfg.act_dtype, DType::kE4M3);
  EXPECT_EQ(cfg.weight_dtype, DType::kE3M4);
  EXPECT_EQ(cfg.label(), "E4M3wE3M4/static");
}

TEST(SchemeConfig, Int8Baseline) {
  EXPECT_EQ(int8_scheme(false).label(), "INT8/static");
  EXPECT_EQ(int8_scheme(true).label(), "INT8/dynamic");
}

TEST(SchemeConfig, Labels) {
  EXPECT_EQ(standard_fp8_scheme(DType::kE4M3).label(), "E4M3/static");
  EXPECT_EQ(standard_fp8_scheme(DType::kE3M4, true).label(), "E3M4/dynamic");
}

TEST(SchemeConfig, FromName) {
  EXPECT_EQ(scheme_from_name("INT8", true).label(), int8_scheme(true).label());
  EXPECT_EQ(scheme_from_name("int8", false).label(), int8_scheme(false).label());
  EXPECT_EQ(scheme_from_name("mixed", false).label(), mixed_fp8_scheme().label());
  EXPECT_EQ(scheme_from_name("e4m3", true).label(), "E4M3/dynamic");
  EXPECT_EQ(scheme_from_name("E3M4", false).label(), "E3M4/static");
  EXPECT_EQ(scheme_from_name("E5M2", true).label(), "E5M2/direct");
  EXPECT_THROW((void)scheme_from_name("E2M5", false), std::invalid_argument);
}

}  // namespace
}  // namespace fp8q
