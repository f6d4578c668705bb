// QuantizedGraph: the end-to-end post-training quantization workflow of
// paper Figure 2 applied to one Graph.
//
// prepare() runs the pipeline once, rewriting the graph in place:
//   1. (NLP, optional) SmoothQuant statistics pass + weight folding
//   2. per-channel weight fake-quantization
//   3. static range calibration of activations (skipped for E5M2 direct
//      quantization and for dynamic mode)
//   4. (CV, optional) BatchNorm calibration through the quantized model
// forward() then executes the graph with activations snapped onto the
// configured grid at every covered operator boundary. It writes no state,
// so concurrent forwards on one prepared graph are safe.
#pragma once

#include <map>
#include <set>
#include <utility>

#include "nn/graph.h"
#include "quant/quantizer.h"

namespace fp8q {

/// Per-model quantization configuration: the scheme plus model-level
/// knobs (CNN exceptions, tuner-driven fallbacks).
struct ModelQuantConfig {
  SchemeConfig scheme;
  bool is_cnn = false;  ///< enables first/last exception and BN calibration
  /// Individual nodes forced to FP32 (accuracy-driven tuning, A.1).
  std::set<Graph::NodeId> fallback_nodes;
  /// Whole op kinds forced to FP32.
  std::set<OpKind> fallback_kinds;
  /// Re-estimate BatchNorm statistics through the quantized network using
  /// this many calibration batches (0 = disabled; paper recommends 3K
  /// samples; section 4.3.1).
  int bn_calibration_batches = 0;
};

/// Ids of the nodes `config` quantizes in `graph`: the quantizable op
/// kinds, minus extended ops unless the scheme covers them, the fallback
/// nodes and kinds, and (CNNs) the first and last compute nodes.
[[nodiscard]] std::set<Graph::NodeId> select_quantized_nodes(const Graph& graph,
                                                             const ModelQuantConfig& config);

/// Parameter-weighted fraction of compute operators `config` runs
/// quantized in `graph` -- the efficiency axis of the tuner's
/// accuracy/performance trade-off (Appendix A.1: "the more operators
/// converted to low precision, the worse the precision"). 1.0 = every
/// compute op quantized.
[[nodiscard]] double quantized_compute_fraction(const Graph& graph,
                                                const ModelQuantConfig& config);

class QuantizedGraph {
 public:
  /// The graph must outlive this object. prepare() quantizes it in place:
  /// to keep an FP32 model, quantize a Graph::clone() of it.
  QuantizedGraph(Graph* graph, ModelQuantConfig config);

  QuantizedGraph(const QuantizedGraph&) = delete;
  QuantizedGraph& operator=(const QuantizedGraph&) = delete;

  /// Runs the PTQ pipeline on a calibration set. Each element holds one
  /// batch of graph inputs (size == graph input count). Rewrites the
  /// graph's weights and, when bn_calibration_batches is set, its
  /// BatchNorm running statistics. Runs once: a second call throws
  /// std::logic_error and leaves the graph as it is. Throws
  /// std::invalid_argument when the set is empty and the scheme needs
  /// data (static E4M3/E3M4/INT8 range calibration, or SmoothQuant).
  void prepare(std::span<const std::vector<Tensor>> calib_batches);

  /// Convenience for single-input graphs.
  void prepare(std::span<const Tensor> calib_batches);

  /// Quantized inference.
  [[nodiscard]] Tensor forward(std::span<const Tensor> inputs) const;
  [[nodiscard]] Tensor forward(const Tensor& input) const { return forward({&input, 1}); }

  [[nodiscard]] const ModelQuantConfig& config() const { return config_; }
  [[nodiscard]] bool prepared() const { return prepared_; }

  /// Calibrated clip magnitude for a static activation (testing/tuning).
  /// Returns 0 if the slot has no static parameters.
  [[nodiscard]] float activation_clip(Graph::NodeId id, int slot) const;

 private:
  void run_smoothquant(std::span<const std::vector<Tensor>> calib_batches);
  void quantize_weights();
  void calibrate_activations(std::span<const std::vector<Tensor>> calib_batches);
  void calibrate_batchnorm(std::span<const std::vector<Tensor>> calib_batches);

  /// True if input `slot` of node `id` should be fake-quantized
  /// (Embedding indices are never quantized).
  [[nodiscard]] bool slot_quantized(Graph::NodeId id, int slot) const;

  /// The fake-quant input tap used for quantized inference. It takes the
  /// operand where the node is its last reader, and casts it in place.
  [[nodiscard]] std::optional<Tensor> quantize_input(Graph::NodeId id, int slot,
                                                     const Operands& in) const;

  Graph* graph_;
  ModelQuantConfig config_;
  bool prepared_ = false;

  std::set<Graph::NodeId> quantized_nodes_;  ///< select_quantized_nodes(*graph_, config_)
  std::map<std::pair<Graph::NodeId, int>, QuantParams> static_params_;
  std::map<std::pair<Graph::NodeId, int>, float> clips_;
  std::map<Graph::NodeId, std::vector<float>> smooth_factors_;  ///< per Linear node
};

}  // namespace fp8q
