// Accuracy-driven automatic tuning (paper Figure 2 feedback loop and
// Appendix A.1): starts from the standard scheme and incrementally applies
// extended-scheme options until the model meets the accuracy criterion.
//
// The search order follows the paper's incremental philosophy:
//   1. standard scheme, preferred format (static)
//   2. dynamic activation quantization           (section 3.2, Table 6)
//   3. mixed FP8 formats E4M3 act / E3M4 weight  (section 3.2, Table 5)
//   4. the other FP8 formats
//   5. operator-kind fallback (most sensitive kind to FP32 first)
//   6. per-node fallback (most sensitive nodes to FP32 first)
#pragma once

#include <vector>

#include "workloads/workload.h"

namespace fp8q {

struct TuneOptions {
  /// The paper's pass criterion: relative loss vs FP32 <= 1%.
  double accuracy_criterion = kDefaultPassThreshold;
  /// Hard cap on evaluated configurations.
  int max_trials = 24;
  /// How many of the most sensitive nodes per-node fallback may disable.
  int max_node_fallbacks = 4;
};

struct TuneStep {
  std::string description;
  ModelQuantConfig config;
  AccuracyRecord record;
  /// Parameter-weighted fraction of compute quantized under this config
  /// (the Pareto efficiency axis of Appendix A.1).
  double quantized_fraction = 0.0;
  /// Time spent evaluating this trial (nondeterministic; reported to the
  /// active RunReport as a "trial:..." stage, see obs/report.h): its
  /// summed unit time from evaluate_pairs, what the trial takes inline on
  /// one thread.
  double eval_ms = 0.0;
  bool met = false;
};

struct TuneResult {
  bool success = false;
  ModelQuantConfig best;        ///< config of the best trial
  AccuracyRecord best_record;   ///< its accuracy record
  std::vector<TuneStep> history;

  [[nodiscard]] int trials() const { return static_cast<int>(history.size()); }
};

/// Runs the tuning loop for one workload starting from `preferred` (the
/// paper's recommended default: E4M3 for NLP, E3M4 for CV).
[[nodiscard]] TuneResult autotune(const Workload& workload, DType preferred,
                                  const EvalProtocol& protocol = {},
                                  const TuneOptions& options = {});

/// Per-node quantization sensitivity: relative accuracy loss when ONLY that
/// node is quantized (descending). Drives the per-node fallback order and
/// the operator-level analyses of Appendix A.1.
[[nodiscard]] std::vector<std::pair<Graph::NodeId, double>> node_sensitivity(
    const Workload& workload, const SchemeConfig& scheme, const EvalProtocol& protocol = {});

/// The paper's recommended default format per domain (section 5):
/// E3M4 for CV, E4M3 for NLP.
[[nodiscard]] inline DType recommended_format(const std::string& domain) {
  return domain == "CV" ? DType::kE3M4 : DType::kE4M3;
}

}  // namespace fp8q
