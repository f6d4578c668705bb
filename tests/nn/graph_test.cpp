// Graph construction, execution order, taps and introspection.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "nn/elementwise.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "obs/memory.h"

namespace fp8q {
namespace {

Graph two_layer_mlp() {
  Graph g;
  const auto in = g.add_input("x");
  const auto l1 = g.add("fc1", std::make_unique<LinearOp>(Tensor({2, 2}, {1, 0, 0, 1}),
                                                          Tensor{}),
                        {in});
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {l1});
  g.add("fc2", std::make_unique<LinearOp>(Tensor({1, 2}, {1, 1}), Tensor{}), {r});
  return g;
}

TEST(Graph, ForwardThroughChain) {
  Graph g = two_layer_mlp();
  Tensor x({1, 2}, {3.0f, -2.0f});
  Tensor y = g.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 3.0f);  // relu(-2) dies, relu(3) passes
}

TEST(Graph, MultiInputAndFanout) {
  // y = (x1 + x2) * x1
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto sum = g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {a, b});
  g.add("mul", std::make_unique<BinaryOp>(OpKind::kMul), {sum, a});
  Tensor x1({2}, {2.0f, 3.0f});
  Tensor x2({2}, {1.0f, 1.0f});
  std::vector<Tensor> ins;
  ins.push_back(x1);
  ins.push_back(x2);
  Tensor y = g.forward(ins);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 12.0f);
}

TEST(Graph, SetOutputSelectsIntermediate) {
  Graph g = two_layer_mlp();
  g.set_output(1);  // fc1 output
  Tensor x({1, 2}, {3.0f, -2.0f});
  Tensor y = g.forward(x);
  EXPECT_EQ(y.numel(), 2);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
  EXPECT_THROW(g.set_output(99), std::invalid_argument);
}

TEST(Graph, InputCountValidation) {
  Graph g = two_layer_mlp();
  std::vector<Tensor> none;
  EXPECT_THROW((void)g.forward(none), std::invalid_argument);
}

TEST(Graph, AddValidation) {
  Graph g;
  const auto in = g.add_input("x");
  EXPECT_THROW(g.add("bad", nullptr, {in}), std::invalid_argument);
  // Arity mismatch: BinaryOp needs 2 inputs.
  EXPECT_THROW(g.add("bad", std::make_unique<BinaryOp>(OpKind::kAdd), {in}),
               std::invalid_argument);
  // Forward reference rejected.
  EXPECT_THROW(g.add("bad", std::make_unique<ActivationOp>(OpKind::kRelu), {5}),
               std::invalid_argument);
}

TEST(Graph, InputTapReplacesValues) {
  Graph g = two_layer_mlp();
  int calls = 0;
  const Graph::InputTap tap = [&](Graph::NodeId, int,
                                  const Tensor& v) -> std::optional<Tensor> {
    ++calls;
    Tensor t = v;
    t.scale(2.0f);
    return t;
  };
  Tensor x({1, 2}, {1.0f, 1.0f});
  Tensor y = g.forward(x, tap);
  // Each of the 3 ops had its input doubled: 1*2 -> relu -> (2+2)*2 = 8...
  // fc1 input doubled: [2,2]; relu input doubled: [4,4]; fc2 input doubled:
  // [8,8] -> sum = 16.
  EXPECT_FLOAT_EQ(y[0], 16.0f);
  EXPECT_EQ(calls, 3);
  // The tap belonged to that call: the next forward is the FP32 one.
  EXPECT_FLOAT_EQ(g.forward(x)[0], 2.0f);
  EXPECT_EQ(calls, 3);
}

TEST(Graph, InputTapNulloptPassesThrough) {
  Graph g = two_layer_mlp();
  const Graph::InputTap pass = [](Graph::NodeId, int, const Tensor&) { return std::nullopt; };
  Tensor x({1, 2}, {1.0f, 1.0f});
  EXPECT_FLOAT_EQ(g.forward(x, pass)[0], 2.0f);
  EXPECT_FLOAT_EQ(g.forward(x)[0], 2.0f);
}

TEST(Graph, TapReplacedOperandsAreMovedNotCopied) {
  // A MatMul whose input tap replaces both operands. Each replacement is
  // the tap's own tensor and must move into the op's operand span, so one
  // forward allocates: the 2 graph inputs copied into the value table, the
  // tap's 2 replacements, the product and the returned copy.
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  g.add("mm", std::make_unique<MatMulOp>(), {a, b});
  const Graph::InputTap tap = [](Graph::NodeId, int,
                                 const Tensor& v) -> std::optional<Tensor> {
    Tensor t = v;
    t.scale(2.0f);
    return t;
  };
  std::vector<Tensor> ins;
  ins.push_back(Tensor({2, 3}, 1.0f));
  ins.push_back(Tensor({3, 4}, 1.0f));

  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(ins, tap);
  const std::uint64_t allocs = alloc_counters_snapshot().since(before).allocs;
  EXPECT_FLOAT_EQ(y[0], 12.0f);  // 3 terms of 2 * 2
  EXPECT_EQ(allocs, 6u);
}

TEST(Graph, OutputTapSeesEveryNode) {
  Graph g = two_layer_mlp();
  std::vector<Graph::NodeId> seen;
  g.set_output_tap([&](Graph::NodeId id, const Tensor&) { seen.push_back(id); });
  Tensor x({1, 2}, {1.0f, 1.0f});
  (void)g.forward(x);
  ASSERT_EQ(seen.size(), 4u);  // input + 3 ops
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[3], 3);
}

TEST(Graph, QuantizableNodeDiscovery) {
  Graph g = two_layer_mlp();
  const auto q = g.quantizable_nodes();
  ASSERT_EQ(q.size(), 2u);  // the two Linears; ReLU is not quantizable
  EXPECT_EQ(g.node(q[0]).kind, OpKind::kLinear);
  EXPECT_EQ(g.first_compute_node(), 1);
  EXPECT_EQ(g.last_compute_node(), 3);
}

TEST(Graph, ParamCountAndSize) {
  Graph g = two_layer_mlp();
  EXPECT_EQ(g.param_count(), 6);  // 4 + 2
  EXPECT_NEAR(g.size_mb(), 6.0 * 4.0 / (1024 * 1024), 1e-12);
}

TEST(Graph, EmptyGraphThrows) {
  Graph g;
  std::vector<Tensor> none;
  EXPECT_THROW((void)g.forward(none), std::logic_error);
}

}  // namespace
}  // namespace fp8q
