// Graph construction, execution order, liveness, taps and introspection.
#include "nn/graph.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "nn/elementwise.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "nn/shape_ops.h"
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
  // add is relu's last reader, but reads it in both slots, so it may not
  // take it: slot 1 must still hold relu's values after slot 0 is read.
  Graph g;
  const auto x = g.add_input("x");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {r, r});
  const Tensor x_in({3}, {1.5f, -1.0f, 2.0f});
  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(x_in);
  EXPECT_EQ(alloc_counters_snapshot().since(before).allocs, 2u);  // relu's and add's copies
  EXPECT_EQ(values_of(y), (std::vector<float>{3.0f, 0.0f, 4.0f}));
}

TEST(Graph, ElementwiseChainAllocatesOnlyItsFirstOutput) {
  // ReLU copies the caller's input; GELU, Scale and Reshape are each the
  // last reader of their operand, so each takes it and writes, or
  // relabels, in place.
  Graph g;
  const auto x = g.add_input("x");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  const auto ge = g.add("gelu", std::make_unique<ActivationOp>(OpKind::kGelu), {r});
  const auto s = g.add("scale", std::make_unique<ScaleOp>(2.0f), {ge});
  g.add("reshape", std::make_unique<ReshapeOp>(Shape{-1}), {s});
  const Tensor in({2, 2}, {1.0f, -1.0f, 0.5f, 3.0f});

  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(in);
  const AllocCounterSnapshot spent = alloc_counters_snapshot().since(before);
  EXPECT_EQ(spent.allocs, 1u);
  EXPECT_EQ(spent.bytes, 4 * sizeof(float));

  const Tensor relu = ActivationOp(OpKind::kRelu).forward(std::array{&in});
  const Tensor gelu = ActivationOp(OpKind::kGelu).forward(std::array{&relu});
  const Tensor want = ScaleOp(2.0f).forward(std::array{&gelu});
  EXPECT_EQ(y.shape(), (Shape{4}));
  EXPECT_EQ(values_of(y), values_of(want));
  EXPECT_EQ(values_of(in), (std::vector<float>{1.0f, -1.0f, 0.5f, 3.0f}));
}

TEST(Graph, OperandReadByALaterNodeIsNotTaken) {
  // relu reads fc1's value p, and add reads p again after relu: relu is
  // not p's last reader, so it copies p and add sees p unchanged. scale
  // and add each take their slot-0 operand.
  Graph g = fanout_to_last();
  const Tensor x({1, 2}, {3.0f, -2.0f});
  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(x);
  EXPECT_EQ(alloc_counters_snapshot().since(before).allocs, 2u);  // fc1's output, relu's copy
  EXPECT_EQ(values_of(y), (std::vector<float>{9.0f, -2.0f}));    // 2 * relu(p) + p
}

TEST(Graph, OutputIsNeverTakenAndTheOutputTapSeesValuesBeforeTakes) {
  // relu is the graph's output and scale1 its last reader, so scale1
  // copies it; scale2 takes scale1's value. The output tap sees each
  // value as its op wrote it, before the next op takes it.
  Graph g;
  const auto x = g.add_input("x");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  const auto s1 = g.add("scale1", std::make_unique<ScaleOp>(2.0f), {r});
  const auto s2 = g.add("scale2", std::make_unique<ScaleOp>(3.0f), {s1});
  g.set_output(r);
  std::map<Graph::NodeId, std::vector<float>> seen;
  g.set_output_tap([&](Graph::NodeId id, const Tensor& v) { seen[id] = values_of(v); });
  const Tensor in({3}, {1.0f, -1.0f, 2.0f});

  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(in);
  EXPECT_EQ(alloc_counters_snapshot().since(before).allocs, 2u);  // relu's and scale1's copies
  EXPECT_EQ(values_of(y), (std::vector<float>{1.0f, 0.0f, 2.0f}));
  EXPECT_EQ(seen[r], values_of(y));
  EXPECT_EQ(seen[s1], (std::vector<float>{2.0f, 0.0f, 4.0f}));
  EXPECT_EQ(seen[s2], (std::vector<float>{6.0f, 0.0f, 12.0f}));
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

TEST(Graph, ConcurrentForwardsShareOneCallerInput) {
  // Untapped forwards run at once on one caller tensor, which each reads
  // in place through a ReLU, slot 1 of an Add, and a Scale that is its
  // last reader. None may write or take it, though add and sum take their
  // computed slot-0 operands: every output equals the serial one and the
  // input keeps its values and its buffer (check_tsan runs this suite).
  struct ThreadCountGuard {
    ~ThreadCountGuard() { set_num_threads(0); }
  } guard;
  set_num_threads(4);
  Graph g;
  const auto x = g.add_input("x");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  const auto a = g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {r, x});
  const auto s = g.add("scale", std::make_unique<ScaleOp>(0.5f), {x});
  g.add("sum", std::make_unique<BinaryOp>(OpKind::kAdd), {a, s});
  Tensor in({256, 256});
  for (std::int64_t i = 0; i < in.numel(); ++i) in[i] = static_cast<float>(i % 7) - 3.0f;
  const std::vector<float> before = values_of(in);
  const float* payload = in.data();

  const AllocCounterSnapshot start = alloc_counters_snapshot();
  const std::vector<float> serial = values_of(g.forward(in));
  EXPECT_EQ(alloc_counters_snapshot().since(start).allocs, 2u);  // relu's and scale's copies
  const std::vector<Tensor> ys = parallel_map(16, [&](std::int64_t) { return g.forward(in); });
  for (const Tensor& y : ys) EXPECT_EQ(values_of(y), serial);
  EXPECT_EQ(values_of(in), before);
  EXPECT_EQ(in.data(), payload);
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
  const Graph::InputTap tap = [&](Graph::NodeId, int slot,
                                  const Operands& in) -> std::optional<Tensor> {
    ++calls;
    Tensor t = in.take(slot);
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
  const Graph::InputTap pass = [](Graph::NodeId, int, const Operands&) { return std::nullopt; };
  Tensor x({1, 2}, {1.0f, 1.0f});
  EXPECT_FLOAT_EQ(g.forward(x, pass)[0], 2.0f);
  EXPECT_FLOAT_EQ(g.forward(x)[0], 2.0f);
}

TEST(Graph, TapReplacedOperandsAreMovedNotCopied) {
  // A MatMul whose input tap replaces both operands. The op reads each
  // replacement where the tap returned it and the graph inputs in place,
  // so one forward allocates only the tap's 2 replacements and the
  // product.
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  g.add("mm", std::make_unique<MatMulOp>(), {a, b});
  const Graph::InputTap tap = [](Graph::NodeId, int slot,
                                 const Operands& in) -> std::optional<Tensor> {
    Tensor t = in[slot];
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
  EXPECT_EQ(allocs, 3u);
}

/// A two-input op that logs the address of each operand it is handed and
/// returns a copy of the first.
class OperandLogOp final : public Op {
 public:
  explicit OperandLogOp(std::vector<const Tensor*>* log) : log_(log) {}
  Tensor forward(const Operands& in) override {
    log_->push_back(&in[0]);
    log_->push_back(&in[1]);
    return in[0];
  }
  [[nodiscard]] OpKind kind() const override { return OpKind::kAdd; }
  [[nodiscard]] int arity() const override { return 2; }
  [[nodiscard]] OpPtr clone() const override { return std::make_unique<OperandLogOp>(*this); }

 private:
  std::vector<const Tensor*>* log_;
};

TEST(Graph, UntouchedOperandsAreTheCallersInputsAndTheProducersValues) {
  // Both slots of a two-input op read the tensor itself, by address: the
  // caller's input or the producer's value (the one the output tap saw),
  // also when one producer feeds both slots. A tap-replaced slot reads the
  // replacement and leaves the other slot in place.
  std::vector<const Tensor*> log;
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  const auto r = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {a});
  const auto ab = g.add("ab", std::make_unique<OperandLogOp>(&log), {a, b});
  const auto rr = g.add("rr", std::make_unique<OperandLogOp>(&log), {r, r});
  g.add("mix", std::make_unique<OperandLogOp>(&log), {ab, rr});
  std::map<Graph::NodeId, const Tensor*> seen;
  g.set_output_tap([&](Graph::NodeId id, const Tensor& v) { seen[id] = &v; });
  std::vector<Tensor> ins;
  ins.push_back(Tensor({2}, {1.0f, -1.0f}));
  ins.push_back(Tensor({2}, {0.5f, 0.25f}));

  (void)g.forward(ins);
  EXPECT_EQ(seen[a], &ins[0]);
  EXPECT_EQ(seen[b], &ins[1]);
  EXPECT_EQ(log, (std::vector<const Tensor*>{&ins[0], &ins[1], seen[r], seen[r], seen[ab],
                                              seen[rr]}));

  log.clear();
  const Graph::InputTap first_slot = [](Graph::NodeId, int slot,
                                        const Operands& in) -> std::optional<Tensor> {
    if (slot != 0) return std::nullopt;
    return in[0];
  };
  (void)g.forward(ins, first_slot);
  ASSERT_EQ(log.size(), 6u);
  EXPECT_NE(log[0], &ins[0]);
  EXPECT_EQ(log[1], &ins[1]);
  EXPECT_NE(log[2], seen[r]);
  EXPECT_EQ(log[3], seen[r]);
  EXPECT_EQ(log[5], seen[rr]);
}

TEST(Graph, AddOfTwoGraphInputsAllocatesOnlyItsOutput) {
  Graph g;
  const auto a = g.add_input("a");
  const auto b = g.add_input("b");
  g.add("add", std::make_unique<BinaryOp>(OpKind::kAdd), {a, b});
  std::vector<Tensor> ins;
  ins.push_back(Tensor({2, 3}, 1.0f));
  ins.push_back(Tensor({2, 3}, 2.0f));

  const AllocCounterSnapshot before = alloc_counters_snapshot();
  const Tensor y = g.forward(ins);
  const AllocCounterSnapshot spent = alloc_counters_snapshot().since(before);
  EXPECT_EQ(values_of(y), std::vector<float>(6, 3.0f));
  EXPECT_EQ(spent.allocs, 1u);
  EXPECT_EQ(spent.bytes, 6 * sizeof(float));
}

TEST(Graph, OutputThatIsAnInputIsReturnedAsACopy) {
  // The caller's tensor is read in place, never moved from or freed: the
  // returned tensor is a copy of it, which the caller's stays equal to.
  Graph g;
  const auto x = g.add_input("x");
  g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {x});
  g.set_output(x);
  const Tensor* read = nullptr;
  const Graph::InputTap record = [&](Graph::NodeId, int slot, const Operands& in) {
    read = &in[slot];
    return std::nullopt;
  };
  const Tensor in({3}, {1.5f, -1.0f, 2.0f});
  const float* payload = in.data();

  const Tensor y = g.forward(in, record);
  EXPECT_EQ(read, &in);
  EXPECT_EQ(values_of(y), values_of(in));
  EXPECT_NE(y.data(), payload);
  EXPECT_EQ(in.data(), payload);
  EXPECT_EQ(values_of(in), (std::vector<float>{1.5f, -1.0f, 2.0f}));
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
