// Workload evaluation protocol and registry invariants.
#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <set>

#include "workloads/registry.h"

namespace fp8q {
namespace {

TEST(Registry, Has75WorkloadsWithPaperComposition) {
  const auto suite = build_suite();
  ASSERT_EQ(suite.size(), 75u);
  int cv = 0;
  int nlp = 0;
  for (const auto& w : suite) {
    if (w.domain == "CV") {
      ++cv;
    } else if (w.domain == "NLP") {
      ++nlp;
    } else {
      FAIL() << "unexpected domain " << w.domain;
    }
  }
  EXPECT_EQ(cv, 34);   // paper: 34 CV networks
  EXPECT_EQ(nlp, 41);  // paper: 38 NLP + 2 speech + 1 recommender
}

TEST(Registry, NamesAreUniqueAndComplete) {
  const auto suite = build_suite();
  std::set<std::string> names;
  for (const auto& w : suite) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
    EXPECT_TRUE(w.build && w.make_batch && w.perturb) << w.name;
  }
}

TEST(Registry, Table3RepresentativesExist) {
  const auto suite = build_suite();
  for (const auto& name : table3_workload_names()) {
    EXPECT_NO_THROW((void)find_workload(suite, name)) << name;
  }
  EXPECT_THROW((void)find_workload(suite, "nope"), std::out_of_range);
}

TEST(Registry, Table2SchemesMatchPaperRows) {
  const auto schemes = table2_fp8_schemes();
  ASSERT_EQ(schemes.size(), 5u);
  EXPECT_EQ(schemes[0].label(), "E5M2/direct");
  EXPECT_EQ(schemes[1].label(), "E4M3/static");
  EXPECT_EQ(schemes[2].label(), "E4M3/dynamic");
  EXPECT_EQ(schemes[3].label(), "E3M4/static");
  EXPECT_EQ(schemes[4].label(), "E3M4/dynamic");
}

TEST(Registry, TaskFamiliesCoverPaperSection41) {
  const auto suite = build_suite();
  std::set<std::string> tasks;
  for (const auto& w : suite) tasks.insert(w.task);
  for (const char* t :
       {"image-classification", "image-segmentation", "object-detection",
        "image-generation", "text-classification", "sentence-similarity",
        "language-modeling", "translation", "speech-recognition", "recommendation"}) {
    EXPECT_TRUE(tasks.contains(t)) << t;
  }
}

TEST(Registry, WorkloadsAreDeterministic) {
  const auto s1 = build_suite();
  const auto s2 = build_suite();
  const Workload& a = find_workload(s1, "resnet50-ish");
  const Workload& b = find_workload(s2, "resnet50-ish");
  Rng ra(1);
  Rng rb(1);
  const auto batch_a = a.make_batch(ra, 4);
  const auto batch_b = b.make_batch(rb, 4);
  Graph ga = a.build();
  Graph gb = b.build();
  const Tensor ya = ga.forward(batch_a);
  const Tensor yb = gb.forward(batch_b);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Evaluate, Fp32SchemeHasZeroLoss) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  SchemeConfig fp32;  // all FP32
  const auto rec = evaluate_workload(w, fp32, smoke_protocol());
  EXPECT_DOUBLE_EQ(rec.fp32_accuracy, rec.quant_accuracy);
  EXPECT_TRUE(rec.passes());
}

TEST(Evaluate, RecordsCarryMetadata) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "dlrm-ish");
  const auto rec = evaluate_workload(w, standard_fp8_scheme(DType::kE4M3), smoke_protocol());
  EXPECT_EQ(rec.workload, "dlrm-ish");
  EXPECT_EQ(rec.domain, "NLP");
  EXPECT_EQ(rec.config, "E4M3/static");
  EXPECT_GT(rec.model_size_mb, 0.0);
  EXPECT_GT(rec.fp32_accuracy, 0.0);
}

TEST(Evaluate, BaselineBelowPerfectWithNoise) {
  // The perturbation protocol must make the FP32 baseline imperfect but
  // strong (the paper's baselines sit in the 0.6-0.97 band).
  const auto suite = build_suite();
  double total = 0.0;
  for (const char* name : {"resnet50-ish", "distilbert-mrpc-ish", "bloom7b-ish"}) {
    const double fp32 = make_eval_plan(find_workload(suite, name), smoke_protocol()).fp32_score;
    EXPECT_GT(fp32, 0.5) << name;
    EXPECT_LE(fp32, 1.0) << name;
    total += fp32;
  }
  // At least some noise-induced errors across the set (not all trivially 1.0).
  EXPECT_LT(total, 3.0);
}

TEST(Evaluate, DefaultConfigAppliesPaperRules) {
  const auto suite = build_suite();
  const Workload& nlp = find_workload(suite, "distilbert-mrpc-ish");
  const Workload& cv = find_workload(suite, "resnet50-ish");
  const auto protocol = smoke_protocol();

  const auto nlp_cfg = default_model_config(nlp, standard_fp8_scheme(DType::kE4M3), protocol);
  EXPECT_TRUE(nlp_cfg.scheme.smoothquant);  // SmoothQuant on NLP
  EXPECT_FALSE(nlp_cfg.is_cnn);
  EXPECT_EQ(nlp_cfg.bn_calibration_batches, 0);

  const auto cv_cfg = default_model_config(cv, standard_fp8_scheme(DType::kE3M4), protocol);
  EXPECT_FALSE(cv_cfg.scheme.smoothquant);  // not on CV
  EXPECT_TRUE(cv_cfg.is_cnn);
  EXPECT_EQ(cv_cfg.bn_calibration_batches, protocol.bn_calibration_batches);

  // FP32 scheme never turns SmoothQuant on.
  const auto fp32_cfg = default_model_config(nlp, SchemeConfig{}, protocol);
  EXPECT_FALSE(fp32_cfg.scheme.smoothquant);
}

TEST(Evaluate, MarginFilterReducesSensitivity) {
  const auto suite = build_suite();
  Workload w = find_workload(suite, "nlp/bert-ish-0");
  const auto protocol = smoke_protocol();
  // With no margin filter, the same scheme shows a larger loss than with
  // the configured filter (random-net logit margins are tiny).
  Workload unfiltered = w;
  unfiltered.margin_quantile = 0.0;
  const auto filtered = evaluate_workload(w, standard_fp8_scheme(DType::kE5M2), protocol);
  const auto raw = evaluate_workload(unfiltered, standard_fp8_scheme(DType::kE5M2), protocol);
  EXPECT_LE(filtered.relative_loss(), raw.relative_loss() + 1e-9);
}

TEST(Evaluate, CustomCalibrationGeneratorIsUsed) {
  // A calibration generator producing wildly out-of-range data must change
  // the static quantization result (proves make_calib_batch is honored).
  const auto suite = build_suite();
  Workload w = find_workload(suite, "distilbert-mrpc-ish");
  const auto protocol = smoke_protocol();
  const auto normal = evaluate_workload(w, standard_fp8_scheme(DType::kE4M3), protocol);
  Workload bad = w;
  bad.make_calib_batch = [base = w.make_batch](Rng& rng, int n) {
    auto in = base(rng, n);
    // Calibration sees a 1e5x range: eval-time activations land deep in
    // the subnormal band / underflow to zero.
    in[0].scale(1e5f);
    return in;
  };
  const auto skewed = evaluate_workload(bad, standard_fp8_scheme(DType::kE4M3), protocol);
  EXPECT_LT(skewed.quant_accuracy, normal.quant_accuracy);
}

TEST(MetricKinds, Names) {
  EXPECT_EQ(to_string(MetricKind::kTop1), "top1");
  EXPECT_EQ(to_string(MetricKind::kPearson), "pearson");
  EXPECT_EQ(to_string(MetricKind::kNmse), "nmse");
}

}  // namespace
}  // namespace fp8q
