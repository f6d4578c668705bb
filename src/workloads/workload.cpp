#include "workloads/workload.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/parallel.h"
#include "metrics/metrics.h"
#include "obs/trace.h"
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

namespace {

/// The steps of a plan build. The constructor is the head: it builds the
/// prototype and draws the data serially from the workload's seeded
/// streams. forward(u) runs one FP32 forward on the prototype: for u < 2n
/// (n evaluation batches) a teacher forward, unit 2b on batch b's clean
/// input and 2b + 1 on its perturbed one; past those, calibration batch
/// u - 2n's SmoothQuant statistics. Distinct units may run concurrently.
/// fold(), once every unit has run, keeps the clean outputs as the
/// teacher targets, folds the FP32 baseline score and merges the
/// statistics, each in batch order.
class EvalPlanBuild {
 public:
  EvalPlanBuild(const Workload& w, const EvalProtocol& protocol) {
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
    // the weights are pristine. Each batch draws clean, then perturbed,
    // from one seeded stream, so the data is drawn here, serially.
    const auto n = static_cast<size_t>(protocol.eval_batches);
    Rng eval_rng(w.data_seed * 104729 + 2);
    clean_.resize(n);
    plan_.batches.resize(n);
    for (size_t b = 0; b < n; ++b) {
      clean_[b] = w.make_batch(eval_rng, protocol.eval_batch_size);
      plan_.batches[b].perturbed = w.perturb(eval_rng, clean_[b]);
    }
    outs_.resize(2 * n);
    calib_stats_.resize(plan_.calib.size());
  }

  /// Two teacher forwards per evaluation batch, then one statistics
  /// forward per calibration batch.
  [[nodiscard]] std::int64_t units() const {
    return static_cast<std::int64_t>(outs_.size() + calib_stats_.size());
  }

  void forward(std::int64_t unit) {
    const auto u = static_cast<size_t>(unit);
    if (u >= outs_.size()) {
      const size_t c = u - outs_.size();
      calib_stats_[c] = smoothquant_statistics(plan_.prototype, {&plan_.calib[c], 1});
      return;
    }
    const size_t b = u / 2;
    outs_[u] = plan_.prototype.forward(u % 2 == 0 ? clean_[b] : plan_.batches[b].perturbed);
  }

  [[nodiscard]] EvalPlan fold() && {
    ScoreAccumulator fp32_acc{plan_.metric, plan_.margin_quantile};
    for (size_t b = 0; b < plan_.batches.size(); ++b) {
      plan_.batches[b].clean_fp32_out = std::move(outs_[2 * b]);
      fp32_acc.add(plan_.batches[b].clean_fp32_out, outs_[2 * b + 1]);
    }
    plan_.fp32_score = fp32_acc.score();
    for (const SmoothQuantStats& stats : calib_stats_) {
      merge_smoothquant_statistics(plan_.smoothquant_stats, stats);
    }
    return std::move(plan_);
  }

 private:
  EvalPlan plan_;
  std::vector<std::vector<Tensor>> clean_;   ///< clean inputs, per batch
  std::vector<Tensor> outs_;                 ///< teacher outputs, per unit
  std::vector<SmoothQuantStats> calib_stats_;  ///< statistics, per calibration batch
};

/// The steps of one trial. The constructor is the prepare: it clones the
/// plan's prototype and runs the PTQ pipeline on the clone (serially:
/// calibration streams its batches in order). forward(b) runs batch b's
/// quantized forward; distinct batches may run concurrently. fold(), once
/// every batch has run, scores the outputs in batch order. The plan is
/// only read and must outlive the trial.
class EvalTrial {
 public:
  EvalTrial(const EvalPlan& plan, const ModelQuantConfig& config)
      : plan_(plan),
        graph_(plan.prototype.clone()),
        quantized_(&graph_, config),
        outs_(plan.batches.size()) {
    quantized_.prepare(std::span<const std::vector<Tensor>>(plan.calib), plan.smoothquant_stats);
  }
  EvalTrial(const EvalTrial&) = delete;
  EvalTrial& operator=(const EvalTrial&) = delete;

  [[nodiscard]] std::int64_t batches() const { return static_cast<std::int64_t>(outs_.size()); }

  void forward(std::int64_t batch) {
    const auto b = static_cast<size_t>(batch);
    outs_[b] = quantized_.forward(plan_.batches[b].perturbed);
  }

  [[nodiscard]] AccuracyRecord fold() const {
    ScoreAccumulator quant_acc{plan_.metric, plan_.margin_quantile};
    for (size_t b = 0; b < outs_.size(); ++b) {
      quant_acc.add(plan_.batches[b].clean_fp32_out, outs_[b]);
    }
    AccuracyRecord record;
    record.workload = plan_.workload_name;
    record.domain = plan_.domain;
    record.config = quantized_.config().scheme.label();
    record.fp32_accuracy = plan_.fp32_score;
    record.quant_accuracy = quant_acc.score();
    record.model_size_mb = plan_.model_size_mb;
    return record;
  }

 private:
  const EvalPlan& plan_;
  Graph graph_;                ///< the quantized clone
  QuantizedGraph quantized_;   ///< holds &graph_
  std::vector<Tensor> outs_;   ///< quantized outputs, per batch
};

}  // namespace

EvalPlan make_eval_plan(const Workload& w, const EvalProtocol& protocol) {
  EvalPlanBuild build(w, protocol);
  parallel_run(build.units(), [&build](std::int64_t u) { build.forward(u); });
  return std::move(build).fold();
}

std::vector<PairResult> evaluate_pairs(const std::vector<EvalJob>& jobs,
                                       const EvalProtocol& protocol,
                                       const std::function<void(int)>& progress) {
  // Keys are (job, phase, pair, unit): `pairs` is the most configs of one
  // job, `width` the most units of one (job, phase, pair) -- a plan
  // build's FP32 forwards, two per evaluation batch and one per
  // calibration batch, or a given plan's forwards.
  enum Phase : std::int64_t { kHead, kTeacher, kPrepare, kForward };
  constexpr std::int64_t kPhases = 4;
  std::int64_t pairs = 0;
  std::int64_t width = std::max<std::int64_t>(
      1, 2 * std::int64_t{protocol.eval_batches} + std::max(0, protocol.calib_batches));
  std::vector<std::size_t> first;  ///< each job's first pair slot
  std::size_t slots = 0;
  for (const EvalJob& job : jobs) {
    pairs = std::max(pairs, static_cast<std::int64_t>(job.configs.size()));
    if (job.plan != nullptr) {
      width = std::max(width, static_cast<std::int64_t>(job.plan->batches.size()));
    }
    first.push_back(slots);
    slots += job.configs.size();
  }
  if (pairs == 0) return {};
  auto key = [&](std::size_t j, Phase phase, std::int64_t pair, std::int64_t unit) {
    return ((static_cast<std::int64_t>(j) * kPhases + phase) * pairs + pair) * width + unit;
  };

  struct JobRun {
    std::optional<EvalPlanBuild> build;  ///< head -> last teacher forward
    std::optional<EvalPlan> built;       ///< last teacher forward -> last record
    const EvalPlan* plan = nullptr;      ///< given, or &*built
    std::atomic<std::int64_t> teachers_left{0};
    std::atomic<std::int64_t> pairs_left{0};
  };
  struct PairRun {
    std::unique_ptr<EvalTrial> trial;  ///< prepare -> record
    AccuracyRecord record;
    std::atomic<std::int64_t> forwards_left{0};
    std::atomic<std::uint64_t> unit_ns{0};
  };
  std::vector<JobRun> runs(jobs.size());
  std::vector<PairRun> pair_runs(slots);
  std::atomic<int> completed{0};

  // A job's plan exists: release a prepare per config.
  auto prepares = [&](std::size_t j) {
    std::vector<std::int64_t> next;
    for (std::size_t p = 0; p < jobs[j].configs.size(); ++p) {
      next.push_back(key(j, kPrepare, static_cast<std::int64_t>(p), 0));
    }
    return next;
  };
  auto fold_plan = [&](std::size_t j) {
    JobRun& run = runs[j];
    run.built.emplace(std::move(*run.build).fold());
    run.build.reset();
    run.plan = &*run.built;
    return prepares(j);
  };
  auto fold_record = [&](std::size_t j, PairRun& pair) {
    pair.record = pair.trial->fold();
    pair.trial.reset();
    if (runs[j].pairs_left.fetch_sub(1) == 1) runs[j].built.reset();
    if (progress) progress(completed.fetch_add(1, std::memory_order_relaxed) + 1);
  };

  std::vector<std::int64_t> ready;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    runs[j].plan = jobs[j].plan;
    runs[j].pairs_left = static_cast<std::int64_t>(jobs[j].configs.size());
    if (jobs[j].configs.empty()) continue;
    if (jobs[j].plan == nullptr) {
      ready.push_back(key(j, kHead, 0, 0));
    } else {
      for (const std::int64_t k : prepares(j)) ready.push_back(k);
    }
  }
  parallel_stream(std::move(ready), [&](std::int64_t k) {
    const std::uint64_t t0 = obs_now_ns();
    const std::int64_t unit = k % width;
    const std::int64_t p = k / width % pairs;
    const auto phase = static_cast<Phase>(k / width / pairs % kPhases);
    const auto j = static_cast<std::size_t>(k / width / pairs / kPhases);
    JobRun& run = runs[j];
    PairRun& pair = pair_runs[first[j] + static_cast<std::size_t>(p)];
    std::vector<std::int64_t> next;
    switch (phase) {
      case kHead: {
        run.build.emplace(*jobs[j].workload, protocol);
        const std::int64_t n = run.build->units();
        if (n == 0) return fold_plan(j);
        run.teachers_left = n;
        for (std::int64_t u = 0; u < n; ++u) next.push_back(key(j, kTeacher, 0, u));
        return next;
      }
      case kTeacher:
        run.build->forward(unit);
        if (run.teachers_left.fetch_sub(1) == 1) return fold_plan(j);
        return next;
      case kPrepare: {
        pair.trial = std::make_unique<EvalTrial>(*run.plan,
                                                 jobs[j].configs[static_cast<std::size_t>(p)]);
        const std::int64_t n = pair.trial->batches();
        pair.forwards_left = n;
        if (n == 0) fold_record(j, pair);
        for (std::int64_t b = 0; b < n; ++b) next.push_back(key(j, kForward, p, b));
        break;
      }
      case kForward:
        pair.trial->forward(unit);
        if (pair.forwards_left.fetch_sub(1) == 1) fold_record(j, pair);
        break;
    }
    // A pair's time: its prepare, its forwards and its fold.
    pair.unit_ns.fetch_add(obs_now_ns() - t0);
    return next;
  });
  std::vector<PairResult> results;
  for (PairRun& pair : pair_runs) {
    results.push_back({std::move(pair.record), static_cast<double>(pair.unit_ns.load()) / 1e6});
  }
  return results;
}

AccuracyRecord evaluate_with_plan(const EvalPlan& plan, const ModelQuantConfig& config) {
  return evaluate_pairs({{nullptr, &plan, {config}}}).front().record;
}

AccuracyRecord evaluate_workload(const Workload& w, const SchemeConfig& scheme,
                                 const EvalProtocol& protocol) {
  return evaluate_with_plan(make_eval_plan(w, protocol),
                            default_model_config(w, scheme, protocol));
}

}  // namespace fp8q
