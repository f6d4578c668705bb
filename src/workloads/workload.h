// Workload definitions and the fidelity evaluation protocol.
//
// A workload = a model builder + input generators + a task metric. The
// evaluation substitutes the paper's dataset accuracy with FP32-teacher
// fidelity (DESIGN.md section 1): ground-truth labels/targets come from the
// FP32 network on clean inputs; both the FP32 and the quantized network are
// then scored on perturbed inputs (Gaussian feature noise, or token
// substitution for discrete inputs). The FP32 score lands below 1.0 (noise
// flips marginal decisions), and quantization error shows up as additional
// score loss -- exactly the quantity the paper's <=1%-relative-loss
// criterion measures.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/passrate.h"
#include "nn/graph.h"
#include "quant/quantized_graph.h"
#include "tensor/rng.h"

namespace fp8q {

/// Task metric used to score a workload.
enum class MetricKind : std::uint8_t {
  kTop1,     ///< classification / next-token: argmax agreement with labels
  kPearson,  ///< STS-B-style correlation against FP32 targets
  kNmse,     ///< bounded regression accuracy 1 - NMSE (segmentation, ASR)
};

[[nodiscard]] std::string_view to_string(MetricKind kind);

struct Workload {
  std::string name;
  std::string domain;  ///< "CV" or "NLP" (speech/rec grouped under NLP)
  std::string task;    ///< e.g. "image-classification"
  std::string family;  ///< architecture family, e.g. "resnet-ish"
  bool is_cnn = false;
  MetricKind metric = MetricKind::kTop1;
  /// For kTop1: rows whose clean-FP32 top-2 logit margin falls below this
  /// quantile of the batch are excluded from scoring. Trained classifiers
  /// make confident (high-margin) predictions on most samples; random
  /// synthetic networks do not, so without a margin floor the top-1 metric
  /// would be pathologically sensitive for every format. 0 disables.
  double margin_quantile = 0.0;
  std::uint64_t data_seed = 0;

  /// Builds a fresh (deterministic) copy of the model.
  std::function<Graph()> build;
  /// Generates one clean batch of graph inputs.
  std::function<std::vector<Tensor>(Rng&, int batch)> make_batch;
  /// Optional calibration-set generator (defaults to make_batch). Used by
  /// the BatchNorm-calibration transform study (paper Figure 7), where the
  /// calibration data is augmented but evaluation data is not.
  std::function<std::vector<Tensor>(Rng&, int batch)> make_calib_batch;
  /// Perturbs a clean batch (noise / token substitution).
  std::function<std::vector<Tensor>(Rng&, const std::vector<Tensor>&)> perturb;
};

/// Evaluation-budget knobs. Defaults are sized so the full 75-workload x
/// 6-configuration sweep finishes in minutes on one core.
struct EvalProtocol {
  int calib_batches = 4;
  int calib_batch_size = 32;
  /// ~1k evaluation samples: the paired fp32/quant comparison needs enough
  /// samples for the 1%-relative-loss criterion to be outside sampling
  /// noise (stderr of the paired accuracy difference ~0.2-0.3%).
  int eval_batches = 14;
  int eval_batch_size = 128;
  int bn_calibration_batches = 4;

  /// Field-wise, so a plan cache keyed by the protocol sees every knob.
  friend auto operator<=>(const EvalProtocol&, const EvalProtocol&) = default;
};

/// The smoke-sized protocol: 2 calibration batches of 8, 2 evaluation
/// batches of 32, 2 BatchNorm-calibration batches. Seconds instead of
/// minutes per evaluation, with every determinism property intact; fp8qd
/// runs `quick` jobs under it, and the unit tests use it.
[[nodiscard]] constexpr EvalProtocol smoke_protocol() {
  return {.calib_batches = 2,
          .calib_batch_size = 8,
          .eval_batches = 2,
          .eval_batch_size = 32,
          .bn_calibration_batches = 2};
}

/// Precomputed evaluation state shared across every quantization trial of
/// one (workload, protocol) pair. Building a plan performs the expensive
/// trial-invariant work once -- model construction, calibration and
/// evaluation data generation, the clean FP32 forward passes that produce
/// the teacher targets, the FP32 baseline score, and SmoothQuant's
/// activation statistics. Each trial then only pays for a Graph::clone()
/// plus the quantized passes.
struct EvalPlan {
  std::string workload_name;
  std::string domain;
  MetricKind metric = MetricKind::kTop1;
  double margin_quantile = 0.0;
  double model_size_mb = 0.0;

  /// Pristine FP32 model; trials clone it, never mutate it.
  Graph prototype;
  /// Calibration batches (make_calib_batches).
  std::vector<std::vector<Tensor>> calib;
  /// SmoothQuant's activation statistics of the prototype on `calib`
  /// (smoothquant_statistics): each trial folds them instead of running
  /// the statistics forwards again.
  SmoothQuantStats smoothquant_stats;

  struct PlanBatch {
    std::vector<Tensor> perturbed;  ///< inputs both networks are scored on
    Tensor clean_fp32_out;          ///< FP32 teacher targets (clean inputs)
  };
  std::vector<PlanBatch> batches;

  /// FP32 score on the perturbed batches (the baseline of the record).
  double fp32_score = 0.0;
};

/// The workload's calibration stream under the protocol: calib_batches
/// batches from make_calib_batch (or make_batch), with the seed derived
/// from data_seed. EvalPlan::calib is exactly this stream; callers that
/// need only calibration data (fp8qd's quantize jobs) use it directly and
/// skip the FP32 teacher passes a full plan runs.
[[nodiscard]] std::vector<std::vector<Tensor>> make_calib_batches(
    const Workload& workload, const EvalProtocol& protocol = {});

/// Builds the trial-invariant evaluation state. The data streams depend
/// only on the workload's seeds and the protocol, so every plan built for
/// one (workload, protocol) pair is the same, bit for bit. Draws the data
/// serially on the calling thread, then runs the FP32 forwards on the
/// prototype as one parallel_run: the teacher forwards (two per
/// evaluation batch, clean and perturbed) and one SmoothQuant statistics
/// forward per calibration batch. Then folds the baseline score and
/// merges the statistics, both in batch order.
[[nodiscard]] EvalPlan make_eval_plan(const Workload& workload,
                                      const EvalProtocol& protocol = {});

/// Scores one quantization configuration against a prebuilt plan: one
/// evaluate_pairs job with the given plan and the one config, so the
/// prepare (a clone of the prototype and the PTQ pipeline on it) runs as
/// one unit, then one quantized forward per evaluation batch, then the
/// score folds in batch order. The config is taken as-is.
[[nodiscard]] AccuracyRecord evaluate_with_plan(const EvalPlan& plan,
                                                const ModelQuantConfig& config);

/// One job of evaluate_pairs: a plan and the configurations scored
/// against it. The plan is `plan` when set (it must outlive the call and
/// is only read), else built in the stream from `workload` under the
/// call's protocol and freed after the job's last record.
struct EvalJob {
  const Workload* workload = nullptr;
  const EvalPlan* plan = nullptr;
  std::vector<ModelQuantConfig> configs;
};

/// One scored (plan, config) pair.
struct PairResult {
  AccuracyRecord record;
  /// Wall time of the pair's prepare, forwards and fold, summed wherever
  /// they ran: what it takes inline on one thread (nondeterministic).
  double unit_ms = 0.0;
};

/// The one multi-config evaluation loop. Every job's steps run as units
/// of one parallel_stream keyed (job, phase, pair, unit), so an idle
/// thread finishes the earliest job first and later jobs' units fill the
/// threads it leaves idle (docs/THREADING.md). A job that builds its plan
/// starts with a head (model build and the serial data draw), which
/// releases the plan's FP32 forwards (teacher and SmoothQuant statistics),
/// one unit each; the last of those folds the plan and releases a prepare
/// per config. A job with a given plan
/// starts at its prepares. Each prepare releases its pair's quantized
/// forwards, one unit per batch; the last of those folds the record. At
/// most num_threads() + 1 built plans are alive, one at a single thread.
/// Returns the results job by job, configs in order. If units throw, the
/// rest still run and the lowest failing job's exception is rethrown.
/// `progress`, if set, gets the running count of completed pairs, from
/// any pool thread, so it must be thread-safe.
[[nodiscard]] std::vector<PairResult> evaluate_pairs(
    const std::vector<EvalJob>& jobs, const EvalProtocol& protocol = {},
    const std::function<void(int)>& progress = nullptr);

/// One evaluation: make_eval_plan plus evaluate_with_plan under
/// default_model_config (SmoothQuant on NLP, paper section 4.2.1; CNN
/// first/last and BatchNorm-calibration rules on is_cnn workloads). For
/// several schemes of one workload, evaluate_suite builds the plan once.
[[nodiscard]] AccuracyRecord evaluate_workload(const Workload& workload,
                                               const SchemeConfig& scheme,
                                               const EvalProtocol& protocol = {});

/// The ModelQuantConfig that evaluate_workload derives from a scheme for
/// this workload (SmoothQuant on NLP, CNN flags, BN calibration).
[[nodiscard]] ModelQuantConfig default_model_config(const Workload& workload,
                                                    const SchemeConfig& scheme,
                                                    const EvalProtocol& protocol = {});

}  // namespace fp8q
