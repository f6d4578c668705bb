// The 75-workload study suite (paper section 4.1).
//
// Mirrors the paper's composition: 34 computer-vision networks, 38 NLP
// networks, 2 speech models and 1 recommender (75 total). Each entry is a
// synthetic stand-in for a named architecture family with distribution
// personalities chosen to land in the regimes the paper documents
// (activation-outlier NLP models, precision-bound CV models, depthwise
// channel-imbalanced CNNs, etc.). Representative entries carry the names
// used in paper Table 3 ("resnet50-ish", "bloom7b-ish", ...).
#pragma once

#include <functional>
#include <vector>

#include "workloads/workload.h"

namespace fp8q {

/// Builds the full 75-entry suite (deterministic).
[[nodiscard]] std::vector<Workload> build_suite();

/// Every fifth workload of `suite`: the 15-workload quick subset.
[[nodiscard]] std::vector<Workload> quick_suite(const std::vector<Workload>& suite);

/// Evaluates every (workload, scheme) pair of the cross product in one
/// evaluate_pairs call (workload.h, docs/THREADING.md): a job per
/// workload, whose plan is built in the stream, scoring the workload's
/// default_model_config per scheme. Records come grouped by workload,
/// schemes in order within each group, as a serial double loop would
/// produce them. Failures and `progress` behave as in evaluate_pairs.
[[nodiscard]] std::vector<AccuracyRecord> evaluate_suite(
    const std::vector<Workload>& suite, const std::vector<SchemeConfig>& schemes,
    const EvalProtocol& protocol = {},
    const std::function<void(int)>& progress = nullptr);

/// Paper Table 2's row set, on evaluate_suite's loop: per workload, the
/// records of `fp8_schemes`, then INT8 (int8_scheme(domain != "CV"):
/// static on CV, dynamic on NLP) with its config relabelled "INT8".
[[nodiscard]] std::vector<AccuracyRecord> evaluate_table2(
    const std::vector<Workload>& suite, const std::vector<SchemeConfig>& fp8_schemes,
    const EvalProtocol& protocol = {},
    const std::function<void(int)>& progress = nullptr);

/// Finds a workload by exact name; throws std::out_of_range if absent.
[[nodiscard]] const Workload& find_workload(const std::vector<Workload>& suite,
                                            const std::string& name);

/// The named Table-3 representative workloads, in the paper's row order.
[[nodiscard]] std::vector<std::string> table3_workload_names();

/// The five FP8 rows of paper Table 2, in row order: E5M2 direct, E4M3
/// static, E4M3 dynamic, E3M4 static, E3M4 dynamic. The sixth row, INT8,
/// depends on the workload's domain; evaluate_table2 appends it.
[[nodiscard]] std::vector<SchemeConfig> table2_fp8_schemes();

}  // namespace fp8q
