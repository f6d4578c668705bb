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

/// Precomputed evaluation state shared across every quantization trial of
/// one (workload, protocol) pair. Building a plan performs the expensive
/// trial-invariant work once -- model construction, calibration and
/// evaluation data generation, the clean FP32 forward passes that produce
/// the teacher targets, and the FP32 baseline score. Each trial then only
/// pays for a Graph::clone() plus the quantized passes.
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

/// The steps of make_eval_plan, for a scheduler that interleaves them
/// across workloads (evaluate_suite). The constructor is the head: it
/// checks the workload, builds the prototype, and draws the calibration
/// and evaluation data serially from the workload's seeded streams.
/// teacher_forward(u) runs one FP32 teacher forward on the prototype
/// (unit 2b is batch b's clean input, unit 2b + 1 its perturbed one);
/// calls with distinct units may run concurrently. fold(), once every
/// unit has run, keeps the clean outputs as the teacher targets and folds
/// the FP32 baseline score in batch order.
class EvalPlanBuild {
 public:
  EvalPlanBuild(const Workload& workload, const EvalProtocol& protocol);

  /// Two teacher forwards per evaluation batch.
  [[nodiscard]] std::int64_t teacher_units() const {
    return static_cast<std::int64_t>(outs_.size());
  }
  void teacher_forward(std::int64_t unit);
  [[nodiscard]] EvalPlan fold() &&;

 private:
  EvalPlan plan_;
  std::vector<std::vector<Tensor>> clean_;  ///< clean inputs, per batch
  std::vector<Tensor> outs_;                ///< teacher outputs, per unit
};

/// The steps of evaluate_with_plan. The constructor is the prepare: it
/// clones the plan's prototype and runs the PTQ pipeline on the clone
/// (serially: calibration streams its batches in order); the config is
/// taken as-is. forward(b) runs the quantized forward of evaluation batch
/// b; calls with distinct batches may run concurrently. fold(), once
/// every batch has run, scores the outputs in batch order. The plan is
/// only read, so concurrent trials may share it; it must outlive the
/// trial.
class EvalTrial {
 public:
  EvalTrial(const EvalPlan& plan, const ModelQuantConfig& config);
  EvalTrial(const EvalTrial&) = delete;
  EvalTrial& operator=(const EvalTrial&) = delete;

  [[nodiscard]] std::int64_t batches() const { return static_cast<std::int64_t>(outs_.size()); }
  void forward(std::int64_t batch);
  [[nodiscard]] AccuracyRecord fold() const;

 private:
  const EvalPlan& plan_;
  Graph graph_;                ///< the quantized clone
  QuantizedGraph quantized_;   ///< holds &graph_
  std::vector<Tensor> outs_;   ///< quantized outputs, per batch
};

/// Builds the trial-invariant evaluation state. The data streams depend
/// only on the workload's seeds and the protocol, so every plan built for
/// one (workload, protocol) pair is the same, bit for bit. Runs
/// EvalPlanBuild's steps: the head, then the teacher forwards as one
/// parallel_run on the prototype (inline inside a parallel region), then
/// the fold.
[[nodiscard]] EvalPlan make_eval_plan(const Workload& workload,
                                      const EvalProtocol& protocol = {});

/// Scores one quantization configuration against a prebuilt plan: runs
/// EvalTrial's steps, the prepare, then the quantized forwards as one
/// parallel_run (inline inside a parallel region: a tuner arm or
/// sensitivity trial), then the fold.
[[nodiscard]] AccuracyRecord evaluate_with_plan(const EvalPlan& plan,
                                                const ModelQuantConfig& config);

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
