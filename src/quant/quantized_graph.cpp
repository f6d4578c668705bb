#include "quant/quantized_graph.h"

#include <optional>
#include <stdexcept>

#include "nn/norm.h"
#include "obs/trace.h"
#include "quant/calibrate.h"
#include "quant/observer.h"
#include "quant/smoothquant.h"
#include "tensor/stats.h"

namespace fp8q {

std::set<Graph::NodeId> select_quantized_nodes(const Graph& graph,
                                               const ModelQuantConfig& config) {
  std::set<Graph::NodeId> nodes;
  const Graph::NodeId first = graph.first_compute_node();
  const Graph::NodeId last = graph.last_compute_node();
  for (Graph::NodeId id : graph.quantizable_nodes()) {
    const OpKind kind = graph.node(id).kind;
    if (is_extended_op(kind) && !config.scheme.quantize_extended_ops) continue;
    if (config.fallback_nodes.contains(id)) continue;
    if (config.fallback_kinds.contains(kind)) continue;
    if (config.is_cnn && config.scheme.skip_first_last && (id == first || id == last)) {
      continue;
    }
    nodes.insert(id);
  }
  return nodes;
}

double quantized_compute_fraction(const Graph& graph, const ModelQuantConfig& config) {
  const std::set<Graph::NodeId> quantized = select_quantized_nodes(graph, config);
  // Weight each compute op by its parameter count (weightless MatMuls
  // count a nominal 1 so attention coverage is still visible).
  double total = 0.0;
  double covered = 0.0;
  for (Graph::NodeId id : graph.node_ids()) {
    const auto& node = graph.node(id);
    if (!node.op || !is_compute_op(node.kind)) continue;
    const double weight =
        std::max<double>(1.0, static_cast<double>(node.op->param_count()));
    total += weight;
    if (quantized.contains(id)) covered += weight;
  }
  return total > 0.0 ? covered / total : 0.0;
}

QuantizedGraph::QuantizedGraph(Graph* graph, ModelQuantConfig config)
    : graph_(graph), config_(std::move(config)) {
  if (!graph_) throw std::invalid_argument("QuantizedGraph: null graph");
  quantized_nodes_ = select_quantized_nodes(*graph_, config_);
}

bool QuantizedGraph::slot_quantized(Graph::NodeId id, int slot) const {
  if (!quantized_nodes_.contains(id)) return false;
  // Embedding input is an index tensor, not numeric data.
  if (graph_->node(id).kind == OpKind::kEmbedding) return false;
  (void)slot;
  return true;
}

void QuantizedGraph::run_smoothquant(std::span<const std::vector<Tensor>> calib_batches) {
  TraceSpan span("qgraph/smoothquant");
  // Collect per-channel absmax of every quantized Linear's input.
  std::map<Graph::NodeId, std::vector<float>> act_cmax;
  const Graph::InputTap tap = [&](Graph::NodeId id, int slot,
                                  const Operands& in) -> std::optional<Tensor> {
    if (slot == 0 && quantized_nodes_.contains(id) &&
        graph_->node(id).kind == OpKind::kLinear && in[0].dim() >= 1) {
      const auto cm = absmax_per_channel(in[0], -1);
      auto& acc = act_cmax[id];
      if (acc.empty()) acc.assign(cm.size(), 0.0f);
      for (size_t j = 0; j < cm.size() && j < acc.size(); ++j) {
        acc[j] = std::max(acc[j], cm[j]);
      }
    }
    return std::nullopt;
  };
  for (const auto& batch : calib_batches) (void)graph_->forward(batch, tap);

  // Fold: W' = W * s, remember s so forward divides the activation.
  for (auto& [id, cmax] : act_cmax) {
    auto* op = graph_->node(id).op.get();
    auto ws = op->weights();
    if (ws.empty()) continue;
    Tensor& w = *ws[0];
    if (w.dim() != 2 || static_cast<size_t>(w.size(1)) != cmax.size()) continue;
    const auto wmax = absmax_per_channel(w, 1);
    auto factors =
        smoothquant_factors(cmax, wmax, config_.scheme.smoothquant_alpha);
    scale_weight_columns(w, factors);
    smooth_factors_[id] = std::move(factors);
  }
}

void QuantizedGraph::quantize_weights() {
  TraceSpan span("qgraph/quantize-weights");
  for (Graph::NodeId id : quantized_nodes_) {
    auto& node = graph_->node(id);
    if (!is_compute_op(node.kind)) continue;  // gamma/beta etc. stay FP32
    auto ws = node.op->weights();
    if (ws.empty()) continue;
    // The main weight (index 0) is quantized per-channel on axis 0; biases
    // and other parameters stay FP32.
    Tensor& w = *ws[0];
    apply_quant_inplace(w, make_weight_params(w, config_.scheme.weight_dtype));
  }
}

void QuantizedGraph::calibrate_activations(
    std::span<const std::vector<Tensor>> calib_batches) {
  TraceSpan span("qgraph/calibrate-activations");
  // absmax calibration reads only the observed range, so its observers
  // keep no reservoir; the percentile, KL and MSE methods read the sample.
  const std::size_t capacity =
      config_.scheme.act_calib == CalibMethod::kAbsMax ? 0 : Observer::kDefaultCapacity;
  std::map<std::pair<Graph::NodeId, int>, Observer> observers;
  const Graph::InputTap tap = [&](Graph::NodeId id, int slot,
                                  const Operands& in) -> std::optional<Tensor> {
    if (!slot_quantized(id, slot)) return std::nullopt;
    Observer& obs = observers.try_emplace({id, slot}, capacity).first->second;
    const auto it = smooth_factors_.find(id);
    if (it != smooth_factors_.end() && slot == 0) {
      Tensor smoothed = in.take(0);
      divide_channels(smoothed, it->second);
      obs.observe(smoothed);
      return smoothed;  // folded weights need the divided activation
    }
    obs.observe(in[slot]);
    return std::nullopt;
  };
  for (const auto& batch : calib_batches) (void)graph_->forward(batch, tap);

  const DType act = config_.scheme.act_dtype;
  for (auto& [key, obs] : observers) {
    if (obs.empty()) continue;
    const float clip =
        calibrate_clip(obs, config_.scheme.act_calib, act, config_.scheme.percentile);
    clips_[key] = clip;
    if (act == DType::kINT8 && config_.scheme.act_calib == CalibMethod::kAbsMax) {
      // INT8 static activations use the asymmetric affine grid over the
      // observed range (the Neural Compressor default).
      static_params_[key] = make_activation_params(act, obs.min(), obs.max());
    } else {
      static_params_[key] = make_activation_params(act, clip);
    }
  }
}

void QuantizedGraph::calibrate_batchnorm(
    std::span<const std::vector<Tensor>> calib_batches) {
  TraceSpan span("qgraph/calibrate-batchnorm");
  std::vector<BatchNorm2dOp*> bns;
  for (Graph::NodeId id : graph_->node_ids()) {
    if (auto* bn = dynamic_cast<BatchNorm2dOp*>(graph_->node(id).op.get())) {
      bn->begin_calibration();
      bns.push_back(bn);
    }
  }
  if (bns.empty()) return;
  const auto n = std::min<std::size_t>(calib_batches.size(),
                                       static_cast<std::size_t>(config_.bn_calibration_batches));
  for (std::size_t i = 0; i < n; ++i) (void)forward(calib_batches[i]);
  for (auto* bn : bns) bn->finish_calibration();
}

void QuantizedGraph::prepare(std::span<const std::vector<Tensor>> calib_batches) {
  TraceSpan span("qgraph/prepare");
  if (prepared_) {
    throw std::logic_error(
        "QuantizedGraph::prepare: the graph is already quantized; prepare a fresh "
        "Graph::clone() instead");
  }
  const DType act = config_.scheme.act_dtype;
  const bool needs_range_calibration =
      !config_.scheme.dynamic_activations && !config_.scheme.per_token_activations &&
      (act == DType::kE4M3 || act == DType::kE3M4 || act == DType::kINT8);
  if (calib_batches.empty() && (needs_range_calibration || config_.scheme.smoothquant)) {
    throw std::invalid_argument("QuantizedGraph::prepare: " + config_.scheme.label() +
                                " needs calibration batches, got none");
  }

  if (config_.scheme.smoothquant) run_smoothquant(calib_batches);
  quantize_weights();
  if (needs_range_calibration) calibrate_activations(calib_batches);

  prepared_ = true;

  if (config_.is_cnn && config_.bn_calibration_batches > 0) {
    calibrate_batchnorm(calib_batches);
  }
}

void QuantizedGraph::prepare(std::span<const Tensor> calib_batches) {
  std::vector<std::vector<Tensor>> wrapped;
  wrapped.reserve(calib_batches.size());
  for (const Tensor& t : calib_batches) {
    std::vector<Tensor> one;
    one.push_back(t);
    wrapped.push_back(std::move(one));
  }
  prepare(std::span<const std::vector<Tensor>>(wrapped));
}

std::optional<Tensor> QuantizedGraph::quantize_input(Graph::NodeId id, int slot,
                                                     const Operands& in) const {
  if (!slot_quantized(id, slot)) return std::nullopt;

  // Per-op span; the name (with the op kind) is only built when tracing
  // is on, so the quantize boundary stays allocation-free otherwise.
  std::optional<TraceSpan> span;
  if (trace_enabled()) {
    span.emplace("qgraph/input:" + std::string(to_string(graph_->node(id).kind)));
  }

  // The operand itself where this node is its last reader (Graph::run),
  // else a copy: either way the divide and the cast then run in place.
  Tensor out = in.take(slot);
  const auto sf = smooth_factors_.find(id);
  if (sf != smooth_factors_.end() && slot == 0) divide_channels(out, sf->second);

  const DType act = config_.scheme.act_dtype;
  if (config_.scheme.per_token_activations) {
    apply_per_token_dynamic(out, act);
    return out;
  }
  if (config_.scheme.dynamic_activations) {
    apply_quant_inplace(out, make_dynamic_activation_params(act, out));
    return out;
  }
  // prepare() calibrated every slot that needs a range, so a slot without
  // static parameters is E5M2 direct quantization (scale 1) or FP32.
  const auto it = static_params_.find({id, slot});
  if (it != static_params_.end()) {
    apply_quant_inplace(out, it->second);
  } else {
    apply_quant_inplace(out, make_activation_params(act, 1.0f));
  }
  return out;
}

Tensor QuantizedGraph::forward(std::span<const Tensor> inputs) const {
  TraceSpan span("qgraph/forward");
  if (!prepared_) throw std::logic_error("QuantizedGraph::forward: call prepare() first");
  return graph_->forward(inputs, [this](Graph::NodeId id, int slot, const Operands& in) {
    return quantize_input(id, slot, in);
  });
}

float QuantizedGraph::activation_clip(Graph::NodeId id, int slot) const {
  const auto it = clips_.find({id, slot});
  return it != clips_.end() ? it->second : 0.0f;
}

}  // namespace fp8q
