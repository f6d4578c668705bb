// fp8q_perfbench: the in-process half of the fp8q benchmark (README.md in
// this directory). run.py builds it, runs it, checks its digests and prints
// the benchmark's result line.
//
//   fp8q_perfbench --workload sweep|serve-replay --seed N --seconds S --trace 0|1
//
//   sweep         Table 2 over the quick 15-workload subset x 6 configs,
//                 through evaluate_suite only. Its traced run also runs one
//                 full autotune ladder on densenet121-ish for the tune layer.
//   serve-replay  the per-layer split of the serve workload's job specs
//                 (the daemon itself is driven by run.py over the wire).
//
// Every layer is observed from outside, through public entry points:
// wrapped Workload callbacks (models), Graph output taps (nn), timed calls
// to make_eval_plan / QuantizedGraph / autotune, and the counter and
// allocation snapshots. Progress goes to stderr; the last stdout line is
// one JSON object: {"ops","failed","wall_s","metrics":{name:[value,unit]},
// "groups":[[name,content],...],"notes":{...}}. A group is one unit of
// output whose content must be bit-identical wherever it repeats.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "nn/graph.h"
#include "obs/counters.h"
#include "obs/memory.h"
#include "quant/quantized_graph.h"
#include "tune/tuner.h"
#include "workloads/registry.h"

namespace {

using namespace fp8q;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

struct Usage {
  double cpu_s = 0.0;
  double sys_s = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Layer spans: [start, end) intervals recorded around every call into a
// layer. Their union over the traced wall time gives the uncovered share.

class Spans {
 public:
  void add(std::uint64_t t0, std::uint64_t t1) {
    std::lock_guard<std::mutex> lock(mu_);
    intervals_.emplace_back(t0, t1);
  }

  /// Total length of the union of all intervals, in seconds.
  double covered_s() {
    std::lock_guard<std::mutex> lock(mu_);
    std::sort(intervals_.begin(), intervals_.end());
    std::uint64_t covered = 0;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (const auto& [a, b] : intervals_) {
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    return static_cast<double>(covered + (hi - lo)) / 1e9;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals_;
};

Spans g_spans;

/// Runs fn() as one layer span; adds its duration to *total_ns if given.
template <class F>
auto spanned(std::atomic<std::uint64_t>* total_ns, F&& fn) {
  const std::uint64_t t0 = now_ns();
  struct Close {
    std::uint64_t t0;
    std::atomic<std::uint64_t>* total_ns;
    ~Close() {
      const std::uint64_t t1 = now_ns();
      g_spans.add(t0, t1);
      if (total_ns != nullptr) total_ns->fetch_add(t1 - t0, std::memory_order_relaxed);
    }
  } close{t0, total_ns};
  return fn();
}

// ---------------------------------------------------------------------------
// nn layer: wall time per op kind from the gaps between output-tap calls.
// Graph::forward taps every input first, then each node right after its op
// ran, so the gap before a node's tap is its input taps (fake-quant in a
// quantized pass) plus its op.

enum Kind : int { kConv, kLinear, kMatmul, kGelu, kRelu, kAdd, kLayerNorm, kBatchNorm,
                  kSoftmax, kOther, kKindCount };
constexpr std::array<const char*, kKindCount> kKindNames = {
    "conv2d", "linear", "matmul", "gelu", "relu", "add", "layernorm", "batchnorm",
    "softmax", "other"};

Kind kind_bucket(OpKind k) {
  switch (k) {
    case OpKind::kConv2d: return kConv;
    case OpKind::kLinear: return kLinear;
    case OpKind::kMatMul:
    case OpKind::kBatchMatMul: return kMatmul;
    case OpKind::kGelu: return kGelu;
    case OpKind::kRelu: return kRelu;
    case OpKind::kAdd: return kAdd;
    case OpKind::kLayerNorm: return kLayerNorm;
    case OpKind::kBatchNorm: return kBatchNorm;
    case OpKind::kSoftmax: return kSoftmax;
    default: return kOther;
  }
}

struct KindTimes {
  std::array<std::atomic<std::uint64_t>, kKindCount> ns{};
  /// Analytic multiply-add flops (x2) of conv2d, linear and matmul nodes.
  std::array<std::atomic<std::uint64_t>, 3> flops{};

  [[nodiscard]] double seconds(int k) const {
    return static_cast<double>(ns[static_cast<std::size_t>(k)].load()) / 1e9;
  }
  [[nodiscard]] double total_s() const {
    double s = 0.0;
    for (int k = 0; k < kKindCount; ++k) s += seconds(k);
    return s;
  }
};

/// An output tap that charges each node's gap to its op kind in `into`.
/// Static per-node facts are read from `g` now; the tap keeps no reference
/// to the graph, so it survives the graph being moved.
Graph::OutputTap make_op_tap(Graph& g, KindTimes& into) {
  struct NodeInfo {
    bool input = true;
    Kind kind = kOther;
    std::int64_t weight_k = 0;  ///< inner size per output channel (conv/linear)
    int first_input = -1;
  };
  struct State {
    std::vector<NodeInfo> nodes;
    std::vector<std::int64_t> last_dim;  ///< size(-1) of each node's last output
    std::uint64_t last = 0;
  };
  auto st = std::make_shared<State>();
  st->nodes.resize(static_cast<std::size_t>(g.node_count()));
  st->last_dim.assign(st->nodes.size(), 1);
  for (Graph::NodeId id : g.node_ids()) {
    auto& node = g.node(id);
    NodeInfo& info = st->nodes[static_cast<std::size_t>(id)];
    if (!node.op) continue;
    info.input = false;
    info.kind = kind_bucket(node.kind);
    if (!node.inputs.empty()) info.first_input = node.inputs[0];
    if (info.kind == kConv || info.kind == kLinear) {
      const auto ws = node.op->weights();
      if (!ws.empty() && ws[0]->dim() > 0 && ws[0]->size(0) > 0) {
        info.weight_k = ws[0]->numel() / ws[0]->size(0);
      }
    }
  }
  return [st, &into](Graph::NodeId id, const Tensor& v) {
    const std::uint64_t t = now_ns();
    const auto idx = static_cast<std::size_t>(id);
    const NodeInfo& info = st->nodes[idx];
    if (!info.input) {
      into.ns[static_cast<std::size_t>(info.kind)].fetch_add(t - st->last,
                                                             std::memory_order_relaxed);
      const auto out = static_cast<std::uint64_t>(v.numel());
      if (info.kind == kConv || info.kind == kLinear) {
        into.flops[static_cast<std::size_t>(info.kind)].fetch_add(
            2 * out * static_cast<std::uint64_t>(info.weight_k), std::memory_order_relaxed);
      } else if (info.kind == kMatmul && info.first_input >= 0) {
        const auto k = st->last_dim[static_cast<std::size_t>(info.first_input)];
        into.flops[kMatmul].fetch_add(2 * out * static_cast<std::uint64_t>(k),
                                      std::memory_order_relaxed);
      }
    }
    st->last_dim[idx] = v.dim() > 0 ? v.size(-1) : 1;
    st->last = now_ns();  // bookkeeping above is not charged to the next node
  };
}

// ---------------------------------------------------------------------------
// models layer: each Workload callback counted and timed by a wrapper. The
// wrapped build also installs the FP32 op tap on the graph it returns, so
// the teacher passes make_eval_plan runs on the prototype are timed apart
// from every quantized pass (clones never copy taps).

struct ModelStats {
  std::atomic<std::uint64_t> builds{0};
  std::atomic<std::uint64_t> build_ns{0};
  std::atomic<std::uint64_t> datagen_ns{0};
};

Workload wrap_models(const Workload& w, ModelStats& ms, KindTimes& fp32) {
  Workload out = w;
  out.build = [inner = w.build, &ms, &fp32] {
    const std::uint64_t t0 = now_ns();
    Graph g = inner();
    ms.build_ns.fetch_add(now_ns() - t0);
    ms.builds.fetch_add(1);
    g.set_output_tap(make_op_tap(g, fp32));
    return g;
  };
  auto timed_gen = [&ms](std::function<std::vector<Tensor>(Rng&, int)> inner) {
    return [inner = std::move(inner), &ms](Rng& rng, int batch) {
      const std::uint64_t t0 = now_ns();
      auto r = inner(rng, batch);
      ms.datagen_ns.fetch_add(now_ns() - t0);
      return r;
    };
  };
  out.make_batch = timed_gen(w.make_batch);
  if (w.make_calib_batch) out.make_calib_batch = timed_gen(w.make_calib_batch);
  out.perturb = [inner = w.perturb, &ms](Rng& rng, const std::vector<Tensor>& clean) {
    const std::uint64_t t0 = now_ns();
    auto r = inner(rng, clean);
    ms.datagen_ns.fetch_add(now_ns() - t0);
    return r;
  };
  return out;
}

// ---------------------------------------------------------------------------
// Digest content: exact (hex-float) record text plus the counter matrix.

std::string record_text(const AccuracyRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "|%a|%a|%a\n", r.fp32_accuracy, r.quant_accuracy,
                r.model_size_mb);
  return r.workload + "|" + r.config + buf;
}

std::string counters_text(const CounterSnapshot& c) {
  std::string s;
  for (int f = 0; f < kObsFormatCount; ++f) {
    for (int e = 0; e < kObsEventCount; ++e) {
      s += to_string(static_cast<ObsFormat>(f));
      s += '.';
      s += to_string(static_cast<ObsEvent>(e));
      s += '=';
      s += std::to_string(c.counts[f][e]);
      s += ';';
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output assembly.

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

struct Result {
  std::int64_t ops = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> groups;
  std::vector<std::pair<std::string, double>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }

  void print(double wall_s) const {
    std::string out = "{\"ops\":" + std::to_string(ops) + ",\"failed\":" +
                      std::to_string(failed);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"wall_s\":%.17g", wall_s);
    out += buf;
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
      out += (i ? ",\"" : "\"") + metrics[i].first + "\":[" + buf + ",\"" +
             metrics[i].second.second + "\"]";
    }
    out += "},\"groups\":[";
    for (std::size_t i = 0; i < groups.size(); ++i) {
      out += (i ? ",[\"" : "[\"") + json_escape(groups[i].first) + "\",\"" +
             json_escape(groups[i].second) + "\"]";
    }
    out += "],\"notes\":{";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", notes[i].second);
      out += (i ? ",\"" : "\"") + notes[i].first + "\":" + buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
};

/// Median and tail of latency samples (ms). The tail is the highest
/// percentile with at least 10 samples above it, or the maximum when there
/// are too few samples for that.
void latency_metrics(Result& res, std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const auto n = static_cast<std::int64_t>(ms.size());
  const std::int64_t tail_idx = n > 10 ? n - 11 : std::max<std::int64_t>(0, n - 1);
  res.metric("latency_p50_ms", median(ms), "ms");
  res.metric("latency_tail_ms", n > 0 ? ms[static_cast<std::size_t>(tail_idx)] : 0.0, "ms");
  res.notes.push_back({"latency_samples", static_cast<double>(n)});
  res.notes.push_back(
      {"latency_tail_pct", n > 0 ? 100.0 * static_cast<double>(tail_idx + 1) /
                                       static_cast<double>(n)
                                 : 0.0});
}

// ---------------------------------------------------------------------------
// Per-layer accounting shared by the traced runs.

struct Layers {
  ModelStats models;
  KindTimes fp32;
  KindTimes q;
  std::atomic<std::uint64_t> plan_ns{0};
  std::atomic<std::uint64_t> trial_ns{0};
  std::atomic<std::uint64_t> prepare_ns{0};
  std::atomic<std::uint64_t> forward_ns{0};
  double repeat_share = 0.0;
  double values_quantized = 0.0;
  double alloc_gib = 0.0;
  double allocs = 0.0;
  double cpu_util = 0.0;
  double sys_s = 0.0;
  double tune_trials = 0.0;
  double tune_trial_s = 0.0;
  double tune_sensitivity_s = 0.0;
  double trace_wall_s = 0.0;
  double untraced_wall_s = 0.0;

  /// Counter, allocation and CPU deltas of one traced phase.
  struct Window {
    CounterSnapshot counters = counters_snapshot();
    AllocCounterSnapshot allocs = alloc_counters_snapshot();
    Usage usage = usage_now();
    std::uint64_t t0 = now_ns();
  };

  void close(const Window& w) {
    const double wall = seconds_since(w.t0);
    const Usage u = usage_now();
    const auto alloc = alloc_counters_snapshot().since(w.allocs);
    values_quantized = static_cast<double>(
        counters_snapshot().since(w.counters).total(ObsEvent::kQuantized));
    alloc_gib = static_cast<double>(alloc.bytes) / (1024.0 * 1024.0 * 1024.0);
    allocs = static_cast<double>(alloc.allocs);
    cpu_util = (u.cpu_s - w.usage.cpu_s) / (wall * num_threads());
    sys_s = u.sys_s - w.usage.sys_s;
  }

  /// Quantized replay of one config against a plan: clone, prepare, and
  /// every eval batch through QuantizedGraph::forward with the op tap set
  /// right before the call (forward clears taps when it returns).
  void replay_trial(const EvalPlan& plan, const ModelQuantConfig& config) {
    const std::uint64_t t0 = now_ns();
    Graph g = spanned(nullptr, [&] { return plan.prototype.clone(); });
    QuantizedGraph qg(&g, config);
    spanned(&prepare_ns, [&] {
      qg.prepare(std::span<const std::vector<Tensor>>(plan.calib));
      return 0;
    });
    const Graph::OutputTap tap = make_op_tap(g, q);
    for (const auto& pb : plan.batches) {
      g.set_output_tap(tap);
      spanned(&forward_ns, [&] { return qg.forward(pb.perturbed); });
    }
    trial_ns.fetch_add(now_ns() - t0);
  }

  void emit(Result& res) const {
    auto s = [](const std::atomic<std::uint64_t>& ns) {
      return static_cast<double>(ns.load()) / 1e9;
    };
    res.metric("models.builds", static_cast<double>(models.builds.load()), "count");
    res.metric("models.build_s", s(models.build_ns), "s");
    res.metric("models.datagen_s", s(models.datagen_ns), "s");
    res.metric("workloads.plan_build_s", s(plan_ns), "s");
    res.metric("workloads.trial_s", s(trial_ns), "s");
    res.metric("workloads.model_repeat_share", repeat_share, "ratio");
    for (int k = 0; k < kKindCount; ++k) {
      res.metric(std::string("nn.fp32.") + kKindNames[static_cast<std::size_t>(k)] + "_s",
                 fp32.seconds(k), "s");
    }
    for (int k = 0; k < kKindCount; ++k) {
      res.metric(std::string("nn.q.") + kKindNames[static_cast<std::size_t>(k)] + "_s",
                 q.seconds(k), "s");
    }
    for (int k : {kConv, kLinear, kMatmul}) {
      const auto idx = static_cast<std::size_t>(k);
      const double flops = static_cast<double>(fp32.flops[idx].load() + q.flops[idx].load());
      const double secs = fp32.seconds(k) + q.seconds(k);
      res.metric(std::string("nn.") + kKindNames[idx] + "_gflops",
                 secs > 0.0 ? flops / secs / 1e9 : 0.0, "GFLOP/s");
    }
    res.metric("quant.prepare_s", s(prepare_ns), "s");
    res.metric("quant.forward_s", s(forward_ns), "s");
    res.metric("quant.forward_overhead_s", s(forward_ns) - q.total_s(), "s");
    res.metric("fp8.values_quantized", values_quantized, "count");
    res.metric("tensor.alloc_gib", alloc_gib, "GiB");
    res.metric("tensor.allocs", allocs, "count");
    res.metric("core.cpu_util", cpu_util, "ratio");
    res.metric("core.sys_s", sys_s, "s");
    res.metric("tune.trials", tune_trials, "count");
    res.metric("tune.trial_s", tune_trial_s, "s");
    res.metric("tune.sensitivity_s", tune_sensitivity_s, "s");
    res.metric("trace.wall_s", trace_wall_s, "s");
    res.metric("trace.untraced_wall_s", untraced_wall_s, "s");
  }
};

// ---------------------------------------------------------------------------
// Workload inputs.

/// Shifts every workload's data seed; the models stay the same.
void shift_data_seeds(std::vector<Workload>& suite, std::uint64_t seed) {
  for (Workload& w : suite) w.data_seed += seed;
}

/// Smoke-sized protocol for warm-up work (pool start, lazy tables).
EvalProtocol warmup_protocol() {
  EvalProtocol p;
  p.calib_batches = 2;
  p.calib_batch_size = 8;
  p.eval_batches = 2;
  p.eval_batch_size = 32;
  p.bn_calibration_batches = 2;
  return p;
}

/// One evaluate_suite call: a domain-homogeneous workload group under the
/// six Table 2 configs (INT8 is static on CV, dynamic on NLP).
struct Chunk {
  std::string name;
  std::vector<Workload> workloads;
  std::vector<SchemeConfig> schemes;
};

/// The quick Table 2 subset (every fifth suite entry, as
/// bench_table2_passrate --quick) in pairs of one domain, CV and NLP
/// alternating, so any prefix of the cycle mixes both domains.
std::vector<Chunk> sweep_chunks(const std::vector<Workload>& suite) {
  std::vector<std::vector<const Workload*>> by_domain(2);
  for (std::size_t i = 0; i < suite.size(); i += 5) {
    by_domain[suite[i].domain == "CV" ? 0 : 1].push_back(&suite[i]);
  }
  std::vector<std::vector<Chunk>> pairs(2);
  for (int d = 0; d < 2; ++d) {
    const auto& ws = by_domain[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < ws.size(); i += 2) {
      Chunk c;
      c.schemes = table2_fp8_schemes();
      c.schemes.push_back(int8_scheme(d == 1));
      for (std::size_t j = i; j < std::min(ws.size(), i + 2); ++j) {
        c.name += (c.workloads.empty() ? "" : "+") + ws[j]->name;
        c.workloads.push_back(*ws[j]);
      }
      pairs[static_cast<std::size_t>(d)].push_back(std::move(c));
    }
  }
  std::vector<Chunk> chunks;
  for (std::size_t i = 0; i < std::max(pairs[0].size(), pairs[1].size()); ++i) {
    for (auto& p : pairs) {
      if (i < p.size()) chunks.push_back(std::move(p[i]));
    }
  }
  return chunks;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

constexpr int kSetupRepeats = 5;

/// The timed phase runs a fixed number of whole units: as many as take
/// about --seconds at these nominal unit times on 4 cores. Fixed work keeps
/// the mix the same at any machine speed, so faster code finishes sooner
/// instead of running a different mix.
int units_for(double seconds, double nominal_unit_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_unit_s)));
}
constexpr double kChunkSeconds = 13.0;

/// Times `once` kSetupRepeats times and records the median as setup_s.
template <class F>
void measure_setup(Result& res, F&& once) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    once();
    times.push_back(seconds_since(t0));
  }
  res.metric("setup_s", median(times), "s");
}

// ---------------------------------------------------------------------------
// sweep

struct ChunkRun {
  std::vector<AccuracyRecord> records;
  std::string content;
  double wall_s = 0.0;
};

/// Runs one chunk through one evaluate_suite call.
ChunkRun run_chunk(const Chunk& c, const EvalProtocol& protocol) {
  const std::uint64_t t0 = now_ns();
  const CounterSnapshot before = counters_snapshot();
  ChunkRun run;
  run.records = spanned(nullptr, [&] { return evaluate_suite(c.workloads, c.schemes, protocol); });
  run.wall_s = seconds_since(t0);
  for (const auto& r : run.records) run.content += record_text(r);
  run.content += counters_text(counters_snapshot().since(before));
  return run;
}

// ---------------------------------------------------------------------------
// tune layer: one full autotune ladder, run by the traced sweep.

TuneOptions ladder_options() {
  TuneOptions o;
  o.accuracy_criterion = -1e9;  // never met: every rung runs
  o.max_trials = 24;
  return o;
}

struct LadderRun {
  TuneResult result;
  std::string content;
};

LadderRun run_ladder(const Workload& w, const EvalProtocol& protocol) {
  const CounterSnapshot before = counters_snapshot();
  LadderRun run;
  run.result = spanned(nullptr, [&] {
    return autotune(w, recommended_format(w.domain), protocol, ladder_options());
  });
  for (const TuneStep& step : run.result.history) {
    run.content += step.description + "|" + record_text(step.record);
  }
  run.content += counters_text(counters_snapshot().since(before));
  return run;
}

/// The tune layer from one ladder on `target`: its trials, their summed
/// eval time, and a timed node_sensitivity minus its own plan build. The
/// ladder's model builds are counted apart from the sweep's models.*.
void trace_ladder(const Workload& target, const EvalProtocol& protocol, Layers& layers,
                  Result& res) {
  ModelStats models;
  KindTimes fp32;
  const LadderRun run = run_ladder(wrap_models(target, models, fp32), protocol);
  res.groups.push_back({"ladder", run.content});
  res.ops += run.result.trials();
  res.notes.push_back({"ladder_model_builds", static_cast<double>(models.builds.load())});
  layers.tune_trials = static_cast<double>(run.result.history.size());
  for (const TuneStep& step : run.result.history) layers.tune_trial_s += step.eval_ms / 1e3;

  const std::uint64_t t_plan = now_ns();
  (void)spanned(nullptr, [&] { return make_eval_plan(target, protocol); });
  const double plan_s = seconds_since(t_plan);
  const std::uint64_t t0 = now_ns();
  (void)spanned(nullptr, [&] {
    return node_sensitivity(target, run.result.best.scheme, protocol);
  });
  layers.tune_sensitivity_s = std::max(0.0, seconds_since(t0) - plan_s);
}

void run_sweep(const Options& opt, Result& res) {
  const EvalProtocol protocol;
  std::vector<Chunk> chunks;
  Workload ladder_target;
  measure_setup(res, [&] {
    std::vector<Workload> suite = spanned(nullptr, [] { return build_suite(); });
    shift_data_seeds(suite, opt.seed);
    chunks = sweep_chunks(suite);
    ladder_target = find_workload(suite, "densenet121-ish");
    // Warm-up: every model of the sweep once, smoke-sized.
    std::vector<Workload> warm;
    for (const Chunk& c : chunks) warm.insert(warm.end(), c.workloads.begin(), c.workloads.end());
    spanned(nullptr, [&] {
      return evaluate_suite(warm, {standard_fp8_scheme(DType::kE4M3)}, warmup_protocol());
    });
  });

  if (opt.trace) {
    Layers layers;
    // Matched pair for the tracing overhead: the smallest chunk untraced,
    // then again inside the full traced sweep.
    const auto twin = static_cast<std::size_t>(
        std::min_element(chunks.begin(), chunks.end(),
                         [](const Chunk& a, const Chunk& b) {
                           return a.workloads.size() < b.workloads.size();
                         }) -
        chunks.begin());
    const ChunkRun first = run_chunk(chunks[twin], protocol);
    layers.untraced_wall_s = first.wall_s;
    res.groups.push_back({"chunk:" + chunks[twin].name, first.content});
    res.ops += static_cast<std::int64_t>(first.records.size());
    std::vector<Chunk> wrapped = chunks;
    for (Chunk& c : wrapped) {
      for (Workload& w : c.workloads) w = wrap_models(w, layers.models, layers.fp32);
    }
    const Layers::Window window;
    std::vector<AccuracyRecord> all;
    for (std::size_t i = 0; i < wrapped.size(); ++i) {
      ChunkRun run = run_chunk(wrapped[i], protocol);
      if (i == twin) layers.trace_wall_s = run.wall_s;
      res.groups.push_back({"chunk:" + chunks[i].name, run.content});
      all.insert(all.end(), run.records.begin(), run.records.end());
      res.ops += static_cast<std::int64_t>(run.records.size());
    }
    layers.close(window);
    std::set<std::string> seen;
    int repeats = 0;
    for (const auto& r : all) repeats += seen.insert(r.workload).second ? 0 : 1;
    layers.repeat_share = static_cast<double>(repeats) / static_cast<double>(all.size());

    // Quantized per-op split: each model replayed through clone, prepare
    // and tapped forwards under its chunk's first FP8 scheme and its INT8
    // scheme, against one make_eval_plan per model, one pool task per
    // model. Two of six configs keep the traced run well inside its time.
    std::vector<std::pair<const Workload*, const Chunk*>> models;
    for (const Chunk& c : chunks) {
      for (const Workload& w : c.workloads) models.emplace_back(&w, &c);
    }
    (void)parallel_map(static_cast<std::int64_t>(models.size()), [&](std::int64_t i) {
      const auto [w, chunk] = models[static_cast<std::size_t>(i)];
      const EvalPlan plan =
          spanned(&layers.plan_ns, [&] { return make_eval_plan(*w, protocol); });
      for (const SchemeConfig* s : {&chunk->schemes.front(), &chunk->schemes.back()}) {
        layers.replay_trial(plan, default_model_config(*w, *s, protocol));
      }
      return 0;
    });
    trace_ladder(ladder_target, protocol, layers, res);
    layers.emit(res);
    return;
  }

  // Latency is per evaluate_suite call (one chunk, 12 evaluations), the
  // time a caller of the sweep API waits. Per-evaluation task times mix
  // models that differ 6x in cost, and their tail jumped between models.
  std::vector<double> lat_ms;
  const Usage u0 = usage_now();
  const std::uint64_t t0 = now_ns();
  const int n_chunks = units_for(opt.seconds, kChunkSeconds);
  for (int k = 0; k < n_chunks; ++k) {
    const Chunk& c = chunks[static_cast<std::size_t>(k) % chunks.size()];
    try {
      ChunkRun run = run_chunk(c, protocol);
      lat_ms.push_back(run.wall_s * 1e3);
      res.ops += static_cast<std::int64_t>(run.records.size());
      res.groups.push_back({"chunk:" + c.name, run.content});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep: chunk %s failed: %s\n", c.name.c_str(), e.what());
      const auto n = static_cast<std::int64_t>(c.workloads.size() * c.schemes.size());
      res.ops += n;
      res.failed += n;
    }
  }
  const double wall = seconds_since(t0);
  const Usage u1 = usage_now();
  res.metric("ops_per_s", static_cast<double>(res.ops - res.failed) / wall, "1/s");
  latency_metrics(res, lat_ms);
  res.metric("cpu_ms_per_op", 1e3 * (u1.cpu_s - u0.cpu_s) / static_cast<double>(res.ops), "ms");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.notes.push_back({"timed_wall_s", wall});
}

// ---------------------------------------------------------------------------
// serve-replay: the serve stream's models and formats, replayed in process
// for the per-layer split the daemon cannot expose over the wire.

void run_serve_replay(Result& res) {
  const EvalProtocol protocol;
  Layers layers;
  const std::vector<Workload> suite = spanned(nullptr, [] { return build_suite(); });
  const Layers::Window window;
  for (const char* name : {"bert-large-cola-ish", "bloom7b-ish"}) {
    const Workload w = wrap_models(find_workload(suite, name), layers.models, layers.fp32);
    const EvalPlan plan = spanned(&layers.plan_ns, [&] { return make_eval_plan(w, protocol); });
    for (const SchemeConfig& scheme :
         {standard_fp8_scheme(DType::kE4M3), standard_fp8_scheme(DType::kE3M4),
          standard_fp8_scheme(DType::kE5M2), int8_scheme(true)}) {
      layers.replay_trial(plan, default_model_config(w, scheme, protocol));
      ++res.ops;
    }
  }
  layers.close(window);
  layers.repeat_share = static_cast<double>(res.ops - 2) / static_cast<double>(res.ops);
  layers.emit(res);
}

int usage_error() {
  std::fprintf(stderr,
               "usage: fp8q_perfbench --workload sweep|serve-replay --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = now_ns();
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      return usage_error();
    }
  }
  // Quantization-event counts are part of every digest.
  set_counters_enabled(true);
  Result res;
  try {
    if (opt.workload == "sweep") {
      run_sweep(opt, res);
    } else if (opt.workload == "serve-replay") {
      run_serve_replay(res);
    } else {
      return usage_error();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8q_perfbench: %s\n", e.what());
    return 1;
  }
  const double wall = seconds_since(t_start);
  if (opt.trace || opt.workload == "serve-replay") {
    res.notes.push_back({"covered_s", g_spans.covered_s()});
  }
  res.print(wall);
  return 0;
}
