// Reproduces paper Figure 3: the tensor-distribution taxonomy.
//   (left)   NLP activations contain outliers -> range-bound
//   (center) CV activations are well behaved  -> precision-bound
//   (right)  weights in both domains          -> precision-bound
// We sample real tensors from the synthetic workload suite and report the
// statistics that define the taxonomy (absmax/stddev ratio, kurtosis).
#include <cstdio>

#include <string>
#include <vector>

#include "nn/graph.h"
#include "tensor/stats.h"
#include "workloads/registry.h"

#include "bench_report.h"

using namespace fp8q;

namespace {

struct Probe {
  double max_ratio = 0.0;   ///< absmax / stddev across sampled tensors (max)
  double kurtosis = 0.0;    ///< worst-case excess kurtosis
  int tensors = 0;
};

Probe probe_activations(const Workload& w) {
  Probe p;
  Graph g = w.build();
  Rng rng(w.data_seed + 5);
  g.set_output_tap([&](Graph::NodeId id, const Tensor& t) {
    if (!is_quantizable_op(g.node(id).kind)) return;
    const auto s = summarize(t);
    if (s.stddev > 0.0) {
      p.max_ratio = std::max(p.max_ratio, s.absmax / s.stddev);
      p.kurtosis = std::max(p.kurtosis, s.kurtosis);
      ++p.tensors;
    }
  });
  // Sample the deployment data path: outliers ride on the perturbed
  // inputs for several families.
  auto batch = w.make_batch(rng, 16);
  batch = w.perturb(rng, batch);
  (void)g.forward(batch);
  return p;
}

Probe probe_weights(const Workload& w) {
  Probe p;
  Graph g = w.build();
  for (Graph::NodeId id : g.node_ids()) {
    auto& node = g.node(id);
    if (!node.op || !is_compute_op(node.kind)) continue;
    const auto ws = node.op->weights();
    if (ws.empty()) continue;
    const auto s = summarize(*ws[0]);
    if (s.stddev > 0.0) {
      p.max_ratio = std::max(p.max_ratio, s.absmax / s.stddev);
      p.kurtosis = std::max(p.kurtosis, s.kurtosis);
      ++p.tensors;
    }
  }
  return p;
}

}  // namespace

int main() {
  fp8q::BenchReport bench_report("bench_fig3_distributions");
  const auto suite = build_suite();
  std::printf("Figure 3: tensor distribution taxonomy (absmax/stddev ratio; higher =\n"
              "more range-bound; a pure Gaussian sits near 4-5)\n\n");
  std::printf("%-26s %-6s | %12s %10s | %12s %10s\n", "workload", "domain", "act ratio",
              "act kurt", "wgt ratio", "wgt kurt");

  double cv_act = 0.0;
  double nlp_act = 0.0;
  double cv_w = 0.0;
  double nlp_w = 0.0;
  int cv_n = 0;
  int nlp_n = 0;
  int shown = 0;
  for (const auto& w : suite) {
    const Probe a = probe_activations(w);
    const Probe wt = probe_weights(w);
    if (w.domain == "CV") {
      cv_act += a.max_ratio;
      cv_w += wt.max_ratio;
      ++cv_n;
    } else {
      nlp_act += a.max_ratio;
      nlp_w += wt.max_ratio;
      ++nlp_n;
    }
    if (shown < 12 && (shown % 2 == 0 ? w.domain == "CV" : w.domain == "NLP")) {
      std::printf("%-26s %-6s | %12.1f %10.1f | %12.1f %10.1f\n", w.name.c_str(),
                  w.domain.c_str(), a.max_ratio, a.kurtosis, wt.max_ratio, wt.kurtosis);
    }
    ++shown;
  }
  std::printf("\nDomain means (activation absmax/stddev ratio):\n");
  std::printf("  NLP activations: %8.1f   (paper: outlier-heavy, range-bound)\n",
              nlp_act / nlp_n);
  std::printf("  CV  activations: %8.1f   (paper: well-behaved, precision-bound)\n",
              cv_act / cv_n);
  std::printf("  NLP weights:     %8.1f   (paper: precision-bound)\n", nlp_w / nlp_n);
  std::printf("  CV  weights:     %8.1f   (paper: precision-bound)\n", cv_w / cv_n);
  return 0;
}
