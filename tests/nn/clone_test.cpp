// Graph::clone(): deep-copied ops and weights, no tap leakage -- the
// contract the per-trial evaluation path relies on.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "nn/conv.h"
#include "nn/elementwise.h"
#include "nn/graph.h"
#include "nn/linear.h"
#include "tensor/rng.h"

namespace fp8q {
namespace {

Graph make_small_graph(Rng& rng) {
  Graph g;
  const auto in = g.add_input("x");
  auto fc1 = std::make_unique<LinearOp>(randn(rng, {16, 8}), randn(rng, {16}));
  const auto h = g.add("fc1", std::move(fc1), {in});
  const auto act = g.add("relu", std::make_unique<ActivationOp>(OpKind::kRelu), {h});
  auto fc2 = std::make_unique<LinearOp>(randn(rng, {4, 16}), Tensor{});
  g.add("fc2", std::move(fc2), {act});
  return g;
}

TEST(GraphClone, ForwardMatchesOriginalBitwise) {
  Rng rng(7);
  Graph g = make_small_graph(rng);
  Graph copy = g.clone();
  Tensor x = randn(rng, {5, 8});
  const Tensor ya = g.forward(x);
  const Tensor yb = copy.forward(x);
  ASSERT_EQ(ya.numel(), yb.numel());
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]) << i;
}

TEST(GraphClone, WeightsAreIndependentCopies) {
  Rng rng(8);
  Graph g = make_small_graph(rng);
  Graph copy = g.clone();
  // Mutate the clone's first weight; the original must not move.
  Tensor* orig_w = g.node(1).op->weights()[0];
  Tensor* copy_w = copy.node(1).op->weights()[0];
  ASSERT_NE(orig_w, copy_w);
  const float before = (*orig_w)[0];
  copy_w->fill(123.0f);
  EXPECT_EQ((*orig_w)[0], before);
  EXPECT_EQ((*copy_w)[0], 123.0f);
}

TEST(GraphClone, TapsAreNotCopied) {
  Rng rng(10);
  Graph g = make_small_graph(rng);
  int tap_calls = 0;
  g.set_output_tap([&](Graph::NodeId, const Tensor&) { ++tap_calls; });
  Graph copy = g.clone();
  Tensor x = randn(rng, {2, 8});
  (void)copy.forward(x);
  EXPECT_EQ(tap_calls, 0);  // the clone runs untapped
  (void)g.forward(x);
  EXPECT_GT(tap_calls, 0);  // the original still has its tap
}

TEST(GraphClone, StructureAndMetadataMatch) {
  Rng rng(11);
  Graph g = make_small_graph(rng);
  Graph copy = g.clone();
  ASSERT_EQ(copy.node_count(), g.node_count());
  EXPECT_EQ(copy.output(), g.output());
  EXPECT_EQ(copy.input_count(), g.input_count());
  EXPECT_EQ(copy.param_count(), g.param_count());
  for (Graph::NodeId id : g.node_ids()) {
    EXPECT_EQ(copy.node(id).name, g.node(id).name);
    EXPECT_EQ(copy.node(id).kind, g.node(id).kind);
    EXPECT_EQ(copy.node(id).inputs, g.node(id).inputs);
  }
}

}  // namespace
}  // namespace fp8q
