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

EvalPlan make_eval_plan(const Workload& w, const EvalProtocol& protocol) {
  if (!w.build || !w.make_batch || !w.perturb) {
    throw std::invalid_argument("make_eval_plan: incomplete workload " + w.name);
  }
  EvalPlan plan;
  plan.workload_name = w.name;
  plan.domain = w.domain;
  plan.metric = w.metric;
  plan.margin_quantile = w.margin_quantile;
  plan.prototype = w.build();
  plan.model_size_mb = plan.prototype.size_mb();
  plan.calib = make_calib_batches(w, protocol);

  // Evaluation set; FP32 targets and the FP32 baseline come first, while
  // the weights are pristine. Each batch draws clean, then perturbed, from
  // one seeded stream, so the data is drawn serially; the teacher forwards
  // then fan out, one unit per forward (2b clean, 2b + 1 perturbed), and
  // the baseline folds in batch order.
  const auto n = static_cast<size_t>(protocol.eval_batches);
  Rng eval_rng(w.data_seed * 104729 + 2);
  std::vector<std::vector<Tensor>> clean(n);
  plan.batches.resize(n);
  for (size_t b = 0; b < n; ++b) {
    clean[b] = w.make_batch(eval_rng, protocol.eval_batch_size);
    plan.batches[b].perturbed = w.perturb(eval_rng, clean[b]);
  }
  std::vector<Tensor> outs = parallel_map(static_cast<std::int64_t>(2 * n), [&](std::int64_t u) {
    const auto b = static_cast<size_t>(u / 2);
    return plan.prototype.forward(u % 2 == 0 ? clean[b] : plan.batches[b].perturbed);
  });
  ScoreAccumulator fp32_acc{w.metric, w.margin_quantile};
  for (size_t b = 0; b < n; ++b) {
    plan.batches[b].clean_fp32_out = std::move(outs[2 * b]);
    fp32_acc.add(plan.batches[b].clean_fp32_out, outs[2 * b + 1]);
  }
  plan.fp32_score = fp32_acc.score();
  return plan;
}

AccuracyRecord evaluate_with_plan(const EvalPlan& plan, const ModelQuantConfig& config) {
  Graph g = plan.prototype.clone();
  QuantizedGraph qg(&g, config);
  qg.prepare(std::span<const std::vector<Tensor>>(plan.calib));
  // One unit per batch; the score folds in batch order.
  const std::vector<Tensor> outs =
      parallel_map(static_cast<std::int64_t>(plan.batches.size()), [&](std::int64_t b) {
        return qg.forward(plan.batches[static_cast<size_t>(b)].perturbed);
      });
  ScoreAccumulator quant_acc{plan.metric, plan.margin_quantile};
  for (size_t b = 0; b < outs.size(); ++b) quant_acc.add(plan.batches[b].clean_fp32_out, outs[b]);

  AccuracyRecord record;
  record.workload = plan.workload_name;
  record.domain = plan.domain;
  record.config = config.scheme.label();
  record.fp32_accuracy = plan.fp32_score;
  record.quant_accuracy = quant_acc.score();
  record.model_size_mb = plan.model_size_mb;
  return record;
}

AccuracyRecord evaluate_workload(const Workload& w, const SchemeConfig& scheme,
                                 const EvalProtocol& protocol) {
  return evaluate_with_plan(make_eval_plan(w, protocol),
                            default_model_config(w, scheme, protocol));
}

}  // namespace fp8q
