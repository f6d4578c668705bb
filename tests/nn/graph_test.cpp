// Graph construction, execution order, liveness, taps and introspection.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/parallel.h"
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

/// p = fc1(x) fans out to the first op after it and to the last op:
/// y = 2 * relu(p) + p.
Graph fanout_to_last() {
  Graph g;
  const auto x = g.add_input("x");
  const auto p = g.add("fc1", std::make_unique<LinearOp>(Tensor({2, 2}, {1, 0, 0, 1}),
                                                         Tensor{}),
                       {x});
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {p});
  const auto s = g.add("scale", std::make_unique<ScaleOp>(2.0f), {r});
  g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {s, p});
  return g;
}

std::vector<float> values_of(const Tensor& t) {
  const auto flat = t.flat();
  return {flat.begin(), flat.end()};
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
  // relu still reads fc1 after it is computed, so liveness must keep the
  // output's value rather than free it after its last consumer.
  Graph g = two_layer_mlp();
  g.set_output(1);  // fc1 output
  Tensor x({1, 2}, {3.0f, -2.0f});
  EXPECT_EQ(values_of(g.forward(x)), (std::vector<float>{3.0f, -2.0f}));
  EXPECT_THROW(g.set_output(99), std::invalid_argument);
}

TEST(Graph, LivenessProducerFeedsBothSlotsOfOneOp) {
  Graph g;
  const auto x = g.add_input("x");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {r, r});
  const Tensor y = g.forward(Tensor({3}, {1.5f, -1.0f, 2.0f}));
  EXPECT_EQ(values_of(y), (std::vector<float>{3.0f, 0.0f, 4.0f}));
}

TEST(Graph, LivenessFanOutProducerReadByFirstAndLastOp) {
  Graph g = fanout_to_last();
  const Tensor y = g.forward(Tensor({1, 2}, {3.0f, -2.0f}));
  EXPECT_EQ(values_of(y), (std::vector<float>{9.0f, -2.0f}));
}

TEST(Graph, LivenessGraphInputReadOnlyByLastOp) {
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {a});
  const auto s = g.add("scale", std::make_unique<ScaleOp>(3.0f), {r});
  g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {s, b});
  std::vector<Tensor> ins;
  ins.push_back(Tensor({2}, {1.0f, -1.0f}));
  ins.push_back(Tensor({2}, {0.5f, 0.25f}));
  EXPECT_EQ(values_of(g.forward(ins)), (std::vector<float>{3.5f, 0.25f}));
}

TEST(Graph, OutputTapSeesValuesFreedRightAfter) {
  // fc1's value is freed once add has read it, relu's once scale has: the
  // tap must still have seen every node's value as computed.
  Graph g = fanout_to_last();
  std::map<Graph::NodeId, std::vector<float>> seen;
  g.set_output_tap([&](Graph::NodeId id, const Tensor& v) { seen[id] = values_of(v); });
  const Tensor x({1, 2}, {3.0f, -2.0f});
  (void)g.forward(x);
  ASSERT_EQ(seen.size(), static_cast<size_t>(g.node_count()));
  for (Graph::NodeId id : g.node_ids()) {
    Graph probe = g.clone();
    probe.set_output(id);
    EXPECT_EQ(seen[id], values_of(probe.forward(x))) << "node " << id;
  }
}

TEST(Graph, ForwardsRepeatAndCloneForwardsAsItsSource) {
  Graph g = fanout_to_last();
  const Tensor x({2, 2}, {3.0f, -2.0f, -0.5f, 4.0f});
  const std::vector<float> first = values_of(g.forward(x));
  EXPECT_EQ(values_of(g.forward(x)), first);
  Graph copy = g.clone();
  EXPECT_EQ(values_of(copy.forward(x)), first);
  copy.set_output(2);
  g.set_output(2);
  EXPECT_EQ(values_of(copy.forward(x)), values_of(g.forward(x)));
}

TEST(Graph, TappedForwardsTakeTurns) {
  // The output tap keeps per-forward state, so concurrent forwards on a
  // tapped graph must each reach it as one contiguous, ordered run. A
  // chain of 32 ReLUs over 64k elements keeps each forward long enough
  // for untaken turns to interleave.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { set_num_threads(0); }
  } guard;
  set_num_threads(4);
  Graph g;
  Graph::NodeId last = g.add_input("x");
  for (int i = 0; i < 32; ++i) {
    last = g.add("relu" + std::to_string(i),
                 std::make_unique<ActivationOp>(OpKind::kRelu), {last});
  }
  std::vector<Graph::NodeId> seen;
  g.set_output_tap([&](Graph::NodeId id, const Tensor&) { seen.push_back(id); });
  const Tensor x({256, 256}, -1.0f);
  const std::vector<Tensor> ys = parallel_map(16, [&](std::int64_t) { return g.forward(x); });
  const auto nodes = static_cast<size_t>(g.node_count());
  ASSERT_EQ(seen.size(), ys.size() * nodes);
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], static_cast<Graph::NodeId>(i % nodes)) << "entry " << i;
  }
  for (const Tensor& y : ys) EXPECT_EQ(y[0], 0.0f);
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
  // tap's 2 replacements and the product.
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
  EXPECT_EQ(allocs, 5u);
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
