#include "workloads/workload.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/parallel.h"
#include "metrics/metrics.h"
#include "quant/quantized_graph.h"

namespace fp8q {

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kTop1: return "top1";
    case MetricKind::kPearson: return "pearson";
    case MetricKind::kNmse: return "nmse";
  }
  return "unknown";
}

namespace {

/// Argmax per row over the last axis of a [rows..., classes] score tensor.
std::vector<std::int64_t> labels_from(const Tensor& scores) {
  const std::int64_t classes = scores.size(-1);
  const std::int64_t rows = scores.numel() / classes;
  std::vector<std::int64_t> labels(static_cast<size_t>(rows));
  const auto flat = scores.flat();
  for (std::int64_t r = 0; r < rows; ++r) {
    labels[static_cast<size_t>(r)] =
        argmax(flat.subspan(static_cast<size_t>(r * classes), static_cast<size_t>(classes)));
  }
  return labels;
}

/// Top-2 margin of each row of a [rows..., classes] score tensor.
std::vector<float> margins_from(const Tensor& scores) {
  const std::int64_t classes = scores.size(-1);
  const std::int64_t rows = scores.numel() / classes;
  std::vector<float> margins(static_cast<size_t>(rows));
  const auto flat = scores.flat();
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto row =
        flat.subspan(static_cast<size_t>(r * classes), static_cast<size_t>(classes));
    float best = row[0];
    float second = -std::numeric_limits<float>::infinity();
    for (size_t c = 1; c < row.size(); ++c) {
      if (row[c] > best) {
        second = best;
        best = row[c];
      } else if (row[c] > second) {
        second = row[c];
      }
    }
    margins[static_cast<size_t>(r)] = best - second;
  }
  return margins;
}

/// Running accumulator for the three metric kinds.
struct ScoreAccumulator {
  ScoreAccumulator(MetricKind k, double mq) : kind(k), margin_quantile(mq) {}

  MetricKind kind;
  double margin_quantile = 0.0;
  std::int64_t agree = 0;
  std::int64_t total = 0;
  std::vector<float> targets;
  std::vector<float> outputs;

  void add(const Tensor& target_scores, const Tensor& output_scores) {
    if (kind == MetricKind::kTop1) {
      const auto labels = labels_from(target_scores);
      const std::int64_t classes = output_scores.size(-1);
      const auto flat = output_scores.flat();
      // Margin filter: emulates the confident-prediction structure of
      // trained classifiers (see Workload::margin_quantile).
      float threshold = -std::numeric_limits<float>::infinity();
      std::vector<float> margins;
      if (margin_quantile > 0.0) {
        margins = margins_from(target_scores);
        std::vector<float> sorted = margins;
        std::sort(sorted.begin(), sorted.end());
        const auto k = static_cast<size_t>(margin_quantile *
                                           static_cast<double>(sorted.size() - 1));
        threshold = sorted[k];
      }
      for (size_t r = 0; r < labels.size(); ++r) {
        if (!margins.empty() && margins[r] < threshold) continue;
        const auto row = flat.subspan(r * static_cast<size_t>(classes),
                                      static_cast<size_t>(classes));
        if (argmax(row) == labels[r]) ++agree;
        ++total;
      }
      return;
    }
    const auto t = target_scores.flat();
    const auto o = output_scores.flat();
    targets.insert(targets.end(), t.begin(), t.end());
    outputs.insert(outputs.end(), o.begin(), o.end());
  }

  [[nodiscard]] double score() const {
    switch (kind) {
      case MetricKind::kTop1:
        return total > 0 ? static_cast<double>(agree) / static_cast<double>(total) : 0.0;
      case MetricKind::kPearson:
        return pearson(targets, outputs);
      case MetricKind::kNmse:
        return nmse_accuracy(targets, outputs);
    }
    return 0.0;
  }
};

}  // namespace

ModelQuantConfig default_model_config(const Workload& w, const SchemeConfig& scheme,
                                      const EvalProtocol& protocol) {
  ModelQuantConfig cfg;
  cfg.scheme = scheme;
  if (scheme.act_dtype != DType::kFP32 && w.domain != "CV") {
    cfg.scheme.smoothquant = true;  // SmoothQuant on all NLP workloads
  }
  cfg.is_cnn = w.is_cnn;
  cfg.bn_calibration_batches = w.is_cnn ? protocol.bn_calibration_batches : 0;
  return cfg;
}

std::vector<std::vector<Tensor>> make_calib_batches(const Workload& w,
                                                    const EvalProtocol& protocol) {
  // Clean data, as in real PTQ; Figure 7 swaps in an augmented generator
  // via make_calib_batch.
  const auto& calib_gen = w.make_calib_batch ? w.make_calib_batch : w.make_batch;
  Rng calib_rng(w.data_seed * 7919 + 1);
  std::vector<std::vector<Tensor>> calib;
  calib.reserve(static_cast<size_t>(protocol.calib_batches));
  for (int b = 0; b < protocol.calib_batches; ++b) {
    calib.push_back(calib_gen(calib_rng, protocol.calib_batch_size));
  }
  return calib;
}

EvalPlanBuild::EvalPlanBuild(const Workload& w, const EvalProtocol& protocol) {
  if (!w.build || !w.make_batch || !w.perturb) {
    throw std::invalid_argument("make_eval_plan: incomplete workload " + w.name);
  }
  plan_.workload_name = w.name;
  plan_.domain = w.domain;
  plan_.metric = w.metric;
  plan_.margin_quantile = w.margin_quantile;
  plan_.prototype = w.build();
  plan_.model_size_mb = plan_.prototype.size_mb();
  plan_.calib = make_calib_batches(w, protocol);

  // Evaluation set; FP32 targets and the FP32 baseline come first, while
  // the weights are pristine. Each batch draws clean, then perturbed, from
  // one seeded stream, so the data is drawn here, serially.
  const auto n = static_cast<size_t>(protocol.eval_batches);
  Rng eval_rng(w.data_seed * 104729 + 2);
  clean_.resize(n);
  plan_.batches.resize(n);
  for (size_t b = 0; b < n; ++b) {
    clean_[b] = w.make_batch(eval_rng, protocol.eval_batch_size);
    plan_.batches[b].perturbed = w.perturb(eval_rng, clean_[b]);
  }
  outs_.resize(2 * n);
}

void EvalPlanBuild::teacher_forward(std::int64_t unit) {
  const auto b = static_cast<size_t>(unit / 2);
  outs_[static_cast<size_t>(unit)] =
      plan_.prototype.forward(unit % 2 == 0 ? clean_[b] : plan_.batches[b].perturbed);
}

EvalPlan EvalPlanBuild::fold() && {
  ScoreAccumulator fp32_acc{plan_.metric, plan_.margin_quantile};
  for (size_t b = 0; b < plan_.batches.size(); ++b) {
    plan_.batches[b].clean_fp32_out = std::move(outs_[2 * b]);
    fp32_acc.add(plan_.batches[b].clean_fp32_out, outs_[2 * b + 1]);
  }
  plan_.fp32_score = fp32_acc.score();
  return std::move(plan_);
}

EvalTrial::EvalTrial(const EvalPlan& plan, const ModelQuantConfig& config)
    : plan_(plan),
      graph_(plan.prototype.clone()),
      quantized_(&graph_, config),
      outs_(plan.batches.size()) {
  quantized_.prepare(std::span<const std::vector<Tensor>>(plan.calib));
}

void EvalTrial::forward(std::int64_t batch) {
  const auto b = static_cast<size_t>(batch);
  outs_[b] = quantized_.forward(plan_.batches[b].perturbed);
}

AccuracyRecord EvalTrial::fold() const {
  ScoreAccumulator quant_acc{plan_.metric, plan_.margin_quantile};
  for (size_t b = 0; b < outs_.size(); ++b) quant_acc.add(plan_.batches[b].clean_fp32_out, outs_[b]);

  AccuracyRecord record;
  record.workload = plan_.workload_name;
  record.domain = plan_.domain;
  record.config = quantized_.config().scheme.label();
  record.fp32_accuracy = plan_.fp32_score;
  record.quant_accuracy = quant_acc.score();
  record.model_size_mb = plan_.model_size_mb;
  return record;
}

EvalPlan make_eval_plan(const Workload& w, const EvalProtocol& protocol) {
  EvalPlanBuild build(w, protocol);
  parallel_run(build.teacher_units(), [&build](std::int64_t u) { build.teacher_forward(u); });
  return std::move(build).fold();
}

AccuracyRecord evaluate_with_plan(const EvalPlan& plan, const ModelQuantConfig& config) {
  EvalTrial trial(plan, config);
  parallel_run(trial.batches(), [&trial](std::int64_t b) { trial.forward(b); });
  return trial.fold();
}

AccuracyRecord evaluate_workload(const Workload& w, const SchemeConfig& scheme,
                                 const EvalProtocol& protocol) {
  return evaluate_with_plan(make_eval_plan(w, protocol),
                            default_model_config(w, scheme, protocol));
}

}  // namespace fp8q
