// Accuracy-driven tuner: trial ordering, stopping, sensitivity analysis.
#include "tune/tuner.h"

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "obs/counters.h"
#include "workloads/registry.h"

namespace fp8q {
namespace {

TEST(RecommendedFormat, MatchesPaperSection5) {
  EXPECT_EQ(recommended_format("CV"), DType::kE3M4);
  EXPECT_EQ(recommended_format("NLP"), DType::kE4M3);
}

TEST(Autotune, EasyWorkloadStopsAtFirstTrial) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  const TuneResult r = autotune(w, DType::kE4M3, smoke_protocol());
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.trials(), 1);
  EXPECT_EQ(r.history.front().description, "standard E4M3/static");
  EXPECT_EQ(r.best.scheme.act_dtype, DType::kE4M3);
}

TEST(Autotune, SearchOrderFollowsPaperWorkflow) {
  // A range-extreme workload where E3M4 fails: the tuner must walk
  // dynamic -> mixed -> alternative formats.
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-0");
  TuneOptions options;
  options.max_trials = 8;
  const TuneResult r = autotune(w, DType::kE3M4, smoke_protocol(), options);
  ASSERT_GE(r.trials(), 2);
  EXPECT_EQ(r.history[0].description, "standard E3M4/static");
  EXPECT_EQ(r.history[1].description, "dynamic E3M4/dynamic");
  if (r.trials() >= 3) {
    EXPECT_EQ(r.history[2].description, "mixed E4M3wE3M4/static");
  }
  // Whatever happens, the best record is the minimum-loss trial.
  for (const auto& step : r.history) {
    EXPECT_GE(step.record.relative_loss(), r.best_record.relative_loss());
  }
}

TEST(Autotune, RespectsTrialBudget) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.max_trials = 3;
  options.max_node_fallbacks = 0;
  const TuneResult r = autotune(w, DType::kE5M2, smoke_protocol(), options);
  EXPECT_LE(r.trials(), 3);
}

TEST(Autotune, E5M2SkipsDynamicTrial) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.max_trials = 2;
  options.max_node_fallbacks = 0;
  const TuneResult r = autotune(w, DType::kE5M2, smoke_protocol(), options);
  for (const auto& step : r.history) {
    EXPECT_NE(step.description, "dynamic E5M2/direct");
  }
}

TEST(Autotune, IdenticalAcrossThreadCounts) {
  // A criterion no config meets, so the ladder, both fallback stages and
  // node sensitivity all run. Ladder arms and sensitivity trials are
  // units of evaluate_pairs; the history, the best config and the counter
  // deltas must equal the serial run's bit for bit.
  struct Restore {
    ~Restore() {
      set_num_threads(0);
      set_counters_enabled(false);
    }
  } restore;
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/lm-extreme-3");
  TuneOptions options;
  options.accuracy_criterion = -1e9;
  struct Run {
    TuneResult result;
    CounterSnapshot counted;
  };
  auto run_at = [&](int threads) {
    set_num_threads(threads);
    const CounterSnapshot before = counters_snapshot();
    Run run{autotune(w, DType::kE4M3, smoke_protocol(), options), {}};
    run.counted = counters_snapshot().since(before);
    return run;
  };
  set_counters_enabled(true);
  const Run serial = run_at(1);
  // 6 ladder arms, 4 kind fallbacks, then node fallbacks.
  ASSERT_GT(serial.result.trials(), 10);
  EXPECT_FALSE(serial.result.success);
  for (int threads : {3, 8}) {
    const Run run = run_at(threads);
    const TuneResult& got = run.result;
    const TuneResult& want = serial.result;
    ASSERT_EQ(got.trials(), want.trials()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.history.size(); ++i) {
      const TuneStep& a = got.history[i];
      const TuneStep& b = want.history[i];
      EXPECT_EQ(a.description, b.description) << "threads=" << threads << " trial " << i;
      EXPECT_EQ(a.record.config, b.record.config) << a.description;
      EXPECT_EQ(a.record.fp32_accuracy, b.record.fp32_accuracy) << a.description;
      EXPECT_EQ(a.record.quant_accuracy, b.record.quant_accuracy) << a.description;
      EXPECT_EQ(a.record.model_size_mb, b.record.model_size_mb) << a.description;
      EXPECT_EQ(a.quantized_fraction, b.quantized_fraction) << a.description;
      EXPECT_EQ(a.met, b.met) << a.description;
    }
    EXPECT_EQ(got.best.scheme.label(), want.best.scheme.label()) << "threads=" << threads;
    EXPECT_EQ(got.best.fallback_kinds, want.best.fallback_kinds) << "threads=" << threads;
    EXPECT_EQ(got.best.fallback_nodes, want.best.fallback_nodes) << "threads=" << threads;
    EXPECT_EQ(got.best_record.quant_accuracy, want.best_record.quant_accuracy);
    EXPECT_TRUE(run.counted == serial.counted) << "threads=" << threads;
  }
  EXPECT_GT(serial.counted.get(ObsFormat::kE4M3, ObsEvent::kQuantized), 0u);
}

TEST(NodeSensitivity, RanksAndCoversQuantizedNodes) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "nlp/bert-outlier-1");
  const auto sens = node_sensitivity(w, standard_fp8_scheme(DType::kE4M3), smoke_protocol());
  ASSERT_FALSE(sens.empty());
  // Descending by loss.
  for (size_t i = 1; i < sens.size(); ++i) {
    EXPECT_GE(sens[i - 1].second, sens[i].second);
  }
  // Node ids must belong to the graph.
  Graph g = w.build();
  for (const auto& [id, loss] : sens) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, g.node_count());
    EXPECT_TRUE(is_quantizable_op(g.node(id).kind));
  }
}

}  // namespace
}  // namespace fp8q
