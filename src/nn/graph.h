// A static dataflow graph of Ops with taps for quantization.
//
// Nodes are appended in topological order (each node's inputs must already
// exist). Execution walks the node list, and each op reads its operands in
// place by pointer: the caller's input tensor or the producer's value,
// never a copy. Each computed value is freed right after its last consumer
// runs (the output node's value is kept and returned), so a forward holds
// only the live values. Two hooks let the quantization layer participate without
// the graph knowing about formats:
//   * input_tap: passed to each forward() call, may replace an operand with
//     a tensor of its own, freed once the op returns (fake-quantization of
//     activations at operator boundaries, calibration observers). Nothing
//     of it outlives the call, so concurrent forwards with different taps
//     do not interfere;
//   * output_tap: held by the graph, observes each graph input, then each
//     node's output right after its op runs (profiling, activation
//     probes). While one is installed, forwards on the graph run one at a
//     time, so the tap sees one forward's nodes in order; it must not run
//     the graph it observes.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/thread_annotations.h"
#include "nn/op.h"

namespace fp8q {

class Graph {
 public:
  using NodeId = int;

  struct Node {
    std::string name;
    OpPtr op;                    ///< null for graph inputs
    std::vector<NodeId> inputs;  ///< producer node ids
    OpKind kind = OpKind::kInput;
  };

  /// Declares a graph input; returns its node id. Inputs are fed to
  /// forward() in declaration order.
  NodeId add_input(std::string name);

  /// Appends an op node consuming the given producers; returns its id.
  /// The last added node is the default output.
  NodeId add(std::string name, OpPtr op, std::vector<NodeId> inputs);

  void set_output(NodeId id);
  [[nodiscard]] NodeId output() const { return output_; }

  /// Hook replacing a node's operand before the op runs. Return std::nullopt
  /// to let the op read the operand in place.
  using InputTap =
      std::function<std::optional<Tensor>(NodeId node, int slot, const Tensor& value)>;
  /// Hook observing each node's freshly computed output.
  using OutputTap = std::function<void(NodeId node, const Tensor& value)>;

  /// Runs the graph on the given input tensors (one per declared input)
  /// and returns the output node's tensor, or a copy when the output is a
  /// graph input. `input_tap`, if set, sees every op input of this call
  /// only. Concurrent calls are safe, since ops write no state outside
  /// BatchNorm calibration; with an output tap installed they take turns.
  [[nodiscard]] Tensor forward(std::span<const Tensor> inputs,
                               const InputTap& input_tap = nullptr);
  [[nodiscard]] Tensor forward(const Tensor& input, const InputTap& input_tap = nullptr) {
    return forward({&input, 1}, input_tap);
  }

  /// Installs the output tap every later forward() calls; nullptr removes it.
  /// Must not race a running forward().
  void set_output_tap(OutputTap tap);

  /// Deep copy: every op (and its weights) is cloned, so the copy can be
  /// mutated, quantized and run concurrently with the original. The output
  /// tap is NOT copied -- it holds caller context bound to this graph.
  [[nodiscard]] Graph clone() const;

  [[nodiscard]] int node_count() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Node& node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  [[nodiscard]] int input_count() const { return static_cast<int>(input_ids_.size()); }

  /// Node ids in execution order (== id order).
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// Ids of nodes with a quantizable op kind.
  [[nodiscard]] std::vector<NodeId> quantizable_nodes() const;

  /// First and last *compute* nodes (paper section 3.1: first Conv / last
  /// Linear are kept in high precision for conv nets). Returns -1 if none.
  [[nodiscard]] NodeId first_compute_node() const;
  [[nodiscard]] NodeId last_compute_node() const;

  /// Total parameter count across all ops.
  [[nodiscard]] std::int64_t param_count() const;

  /// Model size in MB assuming FP32 storage (Figure 5 size buckets).
  [[nodiscard]] double size_mb() const {
    return static_cast<double>(param_count()) * 4.0 / (1024.0 * 1024.0);
  }

 private:
  /// The installed output tap and the lock its forwards take turns on,
  /// held by pointer so the graph stays movable.
  struct TapState {
    explicit TapState(OutputTap t) : tap(std::move(t)) {}
    std::mutex forward_mu;
    OutputTap tap FP8Q_GUARDED_BY(forward_mu);
  };

  /// forward() once the output tap to call, if any, is settled.
  [[nodiscard]] Tensor run(std::span<const Tensor> inputs, const InputTap& input_tap,
                           const OutputTap* output_tap);

  std::vector<Node> nodes_;
  std::vector<NodeId> input_ids_;
  /// Per node: the last node consuming its value, or -1 when none does.
  std::vector<NodeId> last_use_;
  NodeId output_ = -1;
  std::unique_ptr<TapState> output_tap_;
};

}  // namespace fp8q
