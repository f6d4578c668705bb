#include "nn/graph.h"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

namespace fp8q {

Graph::NodeId Graph::add_input(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{std::move(name), nullptr, {}, OpKind::kInput});
  last_use_.push_back(-1);
  input_ids_.push_back(id);
  output_ = id;
  return id;
}

Graph::NodeId Graph::add(std::string name, OpPtr op, std::vector<NodeId> inputs) {
  if (!op) throw std::invalid_argument("Graph::add: null op");
  const auto id = static_cast<NodeId>(nodes_.size());
  if (static_cast<int>(inputs.size()) != op->arity()) {
    throw std::invalid_argument("Graph::add: arity mismatch for " + name);
  }
  for (NodeId in : inputs) {
    if (in < 0 || in >= id) {
      throw std::invalid_argument("Graph::add: input id out of order for " + name);
    }
  }
  // Nodes arrive in topological order, so the newest consumer is the last.
  for (NodeId in : inputs) last_use_[static_cast<size_t>(in)] = id;
  const OpKind kind = op->kind();
  nodes_.push_back(Node{std::move(name), std::move(op), std::move(inputs), kind});
  last_use_.push_back(-1);
  output_ = id;
  return id;
}

void Graph::set_output(NodeId id) {
  if (id < 0 || id >= node_count()) throw std::invalid_argument("Graph::set_output: bad id");
  output_ = id;
}

void Graph::set_output_tap(OutputTap tap) {
  output_tap_ = tap ? std::make_unique<TapState>(std::move(tap)) : nullptr;
}

Graph Graph::clone() const {
  Graph copy;
  copy.nodes_.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    copy.nodes_.push_back(
        Node{node.name, node.op ? node.op->clone() : nullptr, node.inputs, node.kind});
  }
  copy.input_ids_ = input_ids_;
  copy.last_use_ = last_use_;
  copy.output_ = output_;
  return copy;
}

Tensor Graph::forward(std::span<const Tensor> inputs, const InputTap& input_tap) {
  if (!output_tap_) return run(inputs, input_tap, nullptr);
  // The output tap keeps per-forward state, so tapped forwards take turns.
  std::lock_guard<std::mutex> turn(output_tap_->forward_mu);
  return run(inputs, input_tap, &output_tap_->tap);
}

Tensor Graph::run(std::span<const Tensor> inputs, const InputTap& input_tap,
                  const OutputTap* output_tap) {
  if (inputs.size() != input_ids_.size()) {
    throw std::invalid_argument("Graph::forward: wrong number of inputs");
  }
  if (output_ < 0) throw std::logic_error("Graph::forward: empty graph");

  // A node's value is the caller's tensor for a graph input and the op's
  // output, held in `computed`, for any other node.
  std::vector<Tensor> computed(nodes_.size());
  std::vector<const Tensor*> values(nodes_.size());
  for (size_t i = 0; i < input_ids_.size(); ++i) {
    values[static_cast<size_t>(input_ids_[i])] = &inputs[i];
    if (output_tap) (*output_tap)(input_ids_[i], inputs[i]);
  }

  std::vector<std::optional<Tensor>> replaced;
  std::vector<const Tensor*> operands;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    Node& node = nodes_[n];
    if (!node.op) continue;  // graph input
    const auto id = static_cast<NodeId>(n);

    // Each operand is its producer's value, unless the input tap replaces
    // it with a tensor of its own, which lives until the op returns.
    replaced.resize(node.inputs.size());
    operands.resize(node.inputs.size());
    for (size_t s = 0; s < node.inputs.size(); ++s) {
      const Tensor& value = *values[static_cast<size_t>(node.inputs[s])];
      if (input_tap) replaced[s] = input_tap(id, static_cast<int>(s), value);
      operands[s] = replaced[s] ? &*replaced[s] : &value;
    }
    computed[n] = node.op->forward(operands);
    replaced.clear();
    values[n] = &computed[n];
    if (output_tap) (*output_tap)(id, computed[n]);
    // Free each computed operand this node was the last to read.
    for (NodeId in : node.inputs) {
      if (last_use_[static_cast<size_t>(in)] == id && in != output_) {
        computed[static_cast<size_t>(in)] = Tensor{};
      }
    }
  }
  // Never move from the caller's tensor: an output that is a graph input
  // is returned as a copy.
  if (!nodes_[static_cast<size_t>(output_)].op) return *values[static_cast<size_t>(output_)];
  return std::move(computed[static_cast<size_t>(output_)]);
}

std::vector<Graph::NodeId> Graph::node_ids() const {
  std::vector<NodeId> ids(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

std::vector<Graph::NodeId> Graph::quantizable_nodes() const {
  std::vector<NodeId> ids;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (is_quantizable_op(nodes_[i].kind)) ids.push_back(static_cast<NodeId>(i));
  }
  return ids;
}

Graph::NodeId Graph::first_compute_node() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (is_compute_op(nodes_[i].kind)) return static_cast<NodeId>(i);
  }
  return -1;
}

Graph::NodeId Graph::last_compute_node() const {
  for (size_t i = nodes_.size(); i-- > 0;) {
    if (is_compute_op(nodes_[i].kind)) return static_cast<NodeId>(i);
  }
  return -1;
}

std::int64_t Graph::param_count() const {
  std::int64_t n = 0;
  for (const auto& node : nodes_) {
    if (node.op) n += node.op->param_count();
  }
  return n;
}

}  // namespace fp8q
