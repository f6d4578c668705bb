// EvalPlan: the trial-invariant evaluation state carries the workload's
// data, and repeated trials against one plan must be deterministic. That
// a shared plan reproduces a fresh plan per trial bit for bit is checked
// through evaluate_suite in tests/workloads/determinism_test.cpp.
#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/parallel.h"
#include "workloads/registry.h"

namespace fp8q {
namespace {

void expect_same_record(const AccuracyRecord& a, const AccuracyRecord& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.domain, b.domain);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.fp32_accuracy, b.fp32_accuracy);
  EXPECT_EQ(a.quant_accuracy, b.quant_accuracy);
  EXPECT_EQ(a.model_size_mb, b.model_size_mb);
}

TEST(EvalPlan, CarriesWorkloadMetadataAndData) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  const auto protocol = smoke_protocol();
  const EvalPlan plan = make_eval_plan(w, protocol);
  EXPECT_EQ(plan.workload_name, w.name);
  EXPECT_EQ(plan.domain, w.domain);
  EXPECT_EQ(plan.calib.size(), static_cast<std::size_t>(protocol.calib_batches));
  EXPECT_EQ(plan.batches.size(), static_cast<std::size_t>(protocol.eval_batches));
  EXPECT_GT(plan.model_size_mb, 0.0);
  EXPECT_GT(plan.fp32_score, 0.0);
}

TEST(EvalPlan, RepeatedTrialsAreDeterministic) {
  // Results must not move across trials, and the plan's prototype must
  // stay pristine throughout.
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  const auto protocol = smoke_protocol();
  const auto config =
      default_model_config(w, standard_fp8_scheme(DType::kE4M3), protocol);
  const EvalPlan plan = make_eval_plan(w, protocol);
  const auto first = evaluate_with_plan(plan, config);
  const auto second = evaluate_with_plan(plan, config);
  const auto third = evaluate_with_plan(plan, config);
  expect_same_record(first, second);
  expect_same_record(first, third);
}

TEST(EvalPlan, CalibIsExactlyTheCalibStream) {
  // fp8qd's quantize jobs calibrate on make_calib_batches without building
  // a plan; both must see the same batches, bit for bit.
  const auto suite = build_suite();
  const auto protocol = smoke_protocol();
  for (const char* name : {"distilbert-mrpc-ish", "resnet50-ish"}) {
    const Workload& w = find_workload(suite, name);
    const EvalPlan plan = make_eval_plan(w, protocol);
    const auto calib = make_calib_batches(w, protocol);
    ASSERT_EQ(calib.size(), plan.calib.size()) << name;
    for (std::size_t b = 0; b < calib.size(); ++b) {
      ASSERT_EQ(calib[b].size(), plan.calib[b].size()) << name;
      for (std::size_t i = 0; i < calib[b].size(); ++i) {
        const auto want = plan.calib[b][i].flat();
        const auto got = calib[b][i].flat();
        ASSERT_EQ(got.size(), want.size()) << name;
        for (std::size_t j = 0; j < got.size(); ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[j]), std::bit_cast<std::uint32_t>(want[j]))
              << name << " batch " << b << " input " << i << " elem " << j;
        }
      }
    }
  }
}

TEST(EvalPlan, SmoothQuantStatisticsAreTheCalibSetsAtAnyThreadCount) {
  // The plan computes the statistics one calibration batch per unit and
  // merges them in batch order: at 1 and 4 threads they must equal one
  // serial pass of smoothquant_statistics over the plan's own calib set.
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, "distilbert-mrpc-ish");
  const auto protocol = smoke_protocol();
  std::vector<SmoothQuantStats> at;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    at.push_back(make_eval_plan(w, protocol).smoothquant_stats);
  }
  set_num_threads(0);
  const EvalPlan plan = make_eval_plan(w, protocol);
  Graph fp32 = plan.prototype.clone();
  const SmoothQuantStats serial =
      smoothquant_statistics(fp32, std::span<const std::vector<Tensor>>(plan.calib));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(at[0], serial);
  EXPECT_EQ(at[1], serial);
}

}  // namespace
}  // namespace fp8q
