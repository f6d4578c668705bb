#include "tune/tuner.h"

#include <algorithm>
#include <optional>

#include "obs/report.h"
#include "obs/trace.h"

namespace fp8q {

namespace {

/// One candidate configuration of the tuning ladder.
struct Arm {
  std::string description;
  ModelQuantConfig config;
};

/// Records one scored arm (best/success bookkeeping, its quantized-compute
/// fraction read from the prototype's structure, and its `trial:` report
/// stage); returns true when it meets the criterion. Runs on the calling
/// thread in history order, so trials reach the active report in
/// deterministic order even when their units ran in parallel.
bool absorb(TuneResult& result, const EvalPlan& plan, const Arm& arm, PairResult scored,
            const TuneOptions& options) {
  TuneStep step;
  step.description = arm.description;
  step.config = arm.config;
  step.record = std::move(scored.record);
  step.quantized_fraction = quantized_compute_fraction(plan.prototype, arm.config);
  step.eval_ms = scored.unit_ms;
  step.met = step.record.passes(options.accuracy_criterion);
  report_add_stage("trial:" + step.description, step.eval_ms);
  if (result.history.empty() ||
      step.record.relative_loss() < result.best_record.relative_loss()) {
    result.best = step.config;
    result.best_record = step.record;
  }
  if (step.met) result.success = true;
  result.history.push_back(std::move(step));
  return result.history.back().met;
}

/// Evaluates one trial of a serial stage alone and records it; returns
/// true when the criterion is met.
bool try_config(const EvalPlan& plan, const Arm& arm, const TuneOptions& options,
                TuneResult& result) {
  std::optional<TraceSpan> span;
  if (trace_enabled()) span.emplace("tune/trial:" + arm.description);
  std::vector<PairResult> scored = evaluate_pairs({{nullptr, &plan, {arm.config}}});
  return absorb(result, plan, arm, std::move(scored.front()), options);
}

/// node_sensitivity against a prebuilt plan (autotune reuses its own).
std::vector<std::pair<Graph::NodeId, double>> node_sensitivity_with_plan(
    const EvalPlan& plan, const ModelQuantConfig& base) {
  ScopedStage stage("tune/sensitivity");
  // Node set actually covered under this config.
  const std::set<Graph::NodeId> covered = select_quantized_nodes(plan.prototype, base);

  // One independent evaluation per node (quantize only that node), all
  // in one evaluate_pairs call. Results come back in node order, so the
  // sort below sees the same input sequence at any thread count.
  const std::vector<Graph::NodeId> ids(covered.begin(), covered.end());
  std::vector<ModelQuantConfig> solos;
  for (const Graph::NodeId id : ids) {
    ModelQuantConfig solo = base;
    for (const Graph::NodeId other : covered) {
      if (other != id) solo.fallback_nodes.insert(other);
    }
    solos.push_back(std::move(solo));
  }
  const std::vector<PairResult> scored = evaluate_pairs({{nullptr, &plan, std::move(solos)}});

  std::vector<std::pair<Graph::NodeId, double>> sensitivity;
  sensitivity.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    sensitivity.emplace_back(ids[i], scored[i].record.relative_loss());
  }
  std::sort(sensitivity.begin(), sensitivity.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return sensitivity;
}

}  // namespace

std::vector<std::pair<Graph::NodeId, double>> node_sensitivity(
    const Workload& w, const SchemeConfig& scheme, const EvalProtocol& protocol) {
  return node_sensitivity_with_plan(make_eval_plan(w, protocol),
                                    default_model_config(w, scheme, protocol));
}

TuneResult autotune(const Workload& w, DType preferred, const EvalProtocol& protocol,
                    const TuneOptions& options) {
  TuneResult result;
  auto budget = [&] { return result.trials() < options.max_trials; };

  // All trial-invariant work (model build, data generation, FP32 teacher
  // passes) happens once; every trial below evaluates against this plan.
  const EvalPlan plan = make_eval_plan(w, protocol);

  // Stages 1-4 form a fixed ladder whose configurations do not depend on
  // earlier outcomes (only the early exit does), so every arm is scored in
  // one evaluate_pairs call and folded in ladder order afterwards: history,
  // best and trial count are identical to the serial loop, which stops at
  // (and records) the first arm that meets the criterion.
  std::vector<Arm> arms;

  // 1. Standard scheme, preferred format, static.
  const SchemeConfig standard = standard_fp8_scheme(preferred, false);
  arms.push_back({std::string("standard ") + standard.label(),
                  default_model_config(w, standard, protocol)});

  // 2. Dynamic activation quantization (no effect for E5M2's direct cast).
  if (preferred != DType::kE5M2) {
    const SchemeConfig dynamic = standard_fp8_scheme(preferred, true);
    arms.push_back({std::string("dynamic ") + dynamic.label(),
                    default_model_config(w, dynamic, protocol)});
  }

  // 3. Mixed FP8 formats: E4M3 activations with E3M4 weights.
  {
    const SchemeConfig mixed = mixed_fp8_scheme();
    arms.push_back({std::string("mixed ") + mixed.label(),
                    default_model_config(w, mixed, protocol)});
  }

  // 4. The remaining FP8 formats, static then dynamic.
  for (DType fmt : {DType::kE4M3, DType::kE3M4, DType::kE5M2}) {
    if (fmt == preferred) continue;
    for (bool dyn : {false, true}) {
      if (fmt == DType::kE5M2 && dyn) continue;
      const SchemeConfig alt = standard_fp8_scheme(fmt, dyn);
      arms.push_back({std::string("alt-format ") + alt.label(),
                      default_model_config(w, alt, protocol)});
    }
  }

  // Stage 1 always runs even when max_trials <= 0 (matching the old
  // unconditional stage-1 behavior); a negative count must not convert to
  // a huge size_t.
  const int arm_budget = options.max_trials > 0 ? options.max_trials : 1;
  if (static_cast<int>(arms.size()) > arm_budget) {
    arms.resize(static_cast<std::size_t>(arm_budget));
  }
  {
    ScopedStage stage("tune/ladder");
    std::vector<ModelQuantConfig> configs;
    for (const Arm& arm : arms) configs.push_back(arm.config);
    std::vector<PairResult> scored = evaluate_pairs({{nullptr, &plan, std::move(configs)}});
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (absorb(result, plan, arms[i], std::move(scored[i]), options)) return result;
    }
  }

  // 5. Operator-kind fallback on the best config so far.
  const ModelQuantConfig base = result.best;
  {
    ScopedStage stage("tune/fallback-kinds");
    for (OpKind kind : {OpKind::kBatchMatMul, OpKind::kMatMul, OpKind::kEmbedding,
                        OpKind::kConv2d}) {
      if (!budget()) break;
      ModelQuantConfig cfg = base;
      if (cfg.fallback_kinds.contains(kind)) continue;
      cfg.fallback_kinds.insert(kind);
      if (try_config(plan, {std::string("fallback-kind ") + std::string(to_string(kind)), cfg},
                     options, result)) {
        return result;
      }
    }
  }

  // 6. Per-node fallback, most sensitive first (cumulative).
  if (budget() && options.max_node_fallbacks > 0) {
    ScopedStage stage("tune/fallback-nodes");
    const auto sensitivity =
        node_sensitivity_with_plan(plan, default_model_config(w, base.scheme, protocol));
    ModelQuantConfig cfg = result.best;
    int disabled = 0;
    for (const auto& [id, loss] : sensitivity) {
      if (disabled >= options.max_node_fallbacks || !budget()) break;
      if (loss <= 0.0) break;  // remaining nodes are harmless
      cfg.fallback_nodes.insert(id);
      ++disabled;
      if (try_config(plan, {"fallback-node #" + std::to_string(id), cfg}, options, result)) {
        return result;
      }
    }
  }

  return result;
}

}  // namespace fp8q
