// Threading-model determinism contract (docs/THREADING.md): every metric
// the runtime produces must be bit-identical at any thread count. Run once
// normally and once under ctest with FP8Q_NUM_THREADS=1 (see
// tests/CMakeLists.txt); the in-process set_num_threads() sweeps below
// compare 1-thread results with 2, 3 and 8 threads directly.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "fp8q_lint_lib.h"
#include "fp8/cast_fast.h"
#include "fp8/int8.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/matmul.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "tensor/rng.h"
#include "workloads/registry.h"
#include "workloads/workload.h"

namespace fp8q {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { set_num_threads(0); }
};

/// A small cross-section of the suite: one CNN, one transformer encoder,
/// one decoder LM (cheap but exercises conv, matmul and cast paths).
std::vector<Workload> sample_workloads() {
  auto suite = build_suite();
  std::vector<Workload> picked;
  picked.push_back(find_workload(suite, "resnet50-ish"));
  picked.push_back(find_workload(suite, "distilbert-mrpc-ish"));
  picked.push_back(find_workload(suite, "nlp/lm-ish-0"));
  return picked;
}

/// More workloads than the 8-thread runs have threads, all cheap under
/// smoke_protocol(): BN-calibrated CNNs, a ViT, SmoothQuant NLP encoders, a
/// decoder LM, speech models, an MLP and dlrm-ish.
std::vector<Workload> wide_workloads() {
  auto suite = build_suite();
  std::vector<Workload> picked;
  for (const char* name : {"cv/resnet-ish-c8-b2", "cv/superres-0", "cv/unet-ish-c6",
                           "cv/vit-ish-1", "distilbert-mrpc-ish", "nlp/bert-outlier-0",
                           "nlp/lm-ish-0", "wav2vec2-ish", "hubert-ish", "nlp/distil-mlp-0",
                           "dlrm-ish"}) {
    picked.push_back(find_workload(suite, name));
  }
  return picked;
}

/// Records equal bit for bit: labels, and the raw bits of every double.
void expect_bit_identical(const AccuracyRecord& got, const AccuracyRecord& want) {
  const std::string where = want.workload + " " + want.config;
  EXPECT_EQ(got.workload, want.workload) << where;
  EXPECT_EQ(got.domain, want.domain) << where;
  EXPECT_EQ(got.config, want.config) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.fp32_accuracy),
            std::bit_cast<std::uint64_t>(want.fp32_accuracy))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.quant_accuracy),
            std::bit_cast<std::uint64_t>(want.quant_accuracy))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.model_size_mb),
            std::bit_cast<std::uint64_t>(want.model_size_mb))
      << where;
}

/// Tensors equal bit for bit: shape, and the raw bits of every element.
void expect_bit_equal(const Tensor& got, const Tensor& want, const std::string& where) {
  ASSERT_EQ(got.shape(), want.shape()) << where;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.flat()[i]),
              std::bit_cast<std::uint32_t>(want.flat()[i]))
        << where << " element " << i;
  }
}

TEST(Determinism, BulkCastBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const bool counting = counters_enabled();
  set_counters_enabled(true);
  Rng rng(42);
  std::vector<float> in(1 << 18);
  for (float& v : in) v = rng.normal(0.0f, 3.0f);
  // An asymmetric grid narrower than the data, so both tails saturate and
  // the values nearest 0 flush.
  const Int8Params int8 = int8_asymmetric_params(-4.0f, 6.0f);

  struct Casts {
    std::vector<float> fp8;
    std::vector<float> int8;
    CounterSnapshot events;
  };
  auto run = [&](int threads) {
    set_num_threads(threads);
    Casts c{std::vector<float>(in.size()), std::vector<float>(in.size()), {}};
    const CounterSnapshot before = counters_snapshot();
    fp8_quantize_scaled_fast(in, c.fp8, fast_cast_spec(Fp8Kind::E4M3), 0.37f);
    int8_quantize(in, c.int8, int8);
    c.events = counters_snapshot().since(before);
    return c;
  };

  const Casts serial = run(1);
  EXPECT_GT(serial.events.get(ObsFormat::kInt8, ObsEvent::kSaturated), 0u);
  EXPECT_GT(serial.events.get(ObsFormat::kInt8, ObsEvent::kFlushedToZero), 0u);
  for (int threads : {2, 8}) {
    const Casts parallel = run(threads);
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(serial.fp8[i]),
                std::bit_cast<std::uint32_t>(parallel.fp8[i]))
          << "E4M3 threads=" << threads << " i=" << i;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(serial.int8[i]),
                std::bit_cast<std::uint32_t>(parallel.int8[i]))
          << "INT8 threads=" << threads << " i=" << i;
    }
    EXPECT_TRUE(parallel.events == serial.events) << "threads=" << threads;
  }
  set_counters_enabled(counting);
}

TEST(Determinism, MatMulAndConvBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(7);
  const Tensor a = randn(rng, {3, 17, 24});
  const Tensor b = randn(rng, {3, 24, 19});
  const Tensor x = randn(rng, {2, 6, 12, 12});
  const Tensor w = randn(rng, {8, 6, 3, 3});
  MatMulOp mm(true, false);
  Conv2dOp conv(w, Tensor{}, 1, 1, 1);
  const std::array<const Tensor*, 2> mm_in = {&a, &b};
  const std::array<const Tensor*, 1> conv_in = {&x};

  set_num_threads(1);
  const Tensor y1 = mm.forward(mm_in);
  const Tensor c1 = conv.forward(conv_in);
  set_num_threads(8);
  const Tensor y8 = mm.forward(mm_in);
  const Tensor c8 = conv.forward(conv_in);

  ASSERT_EQ(y1.numel(), y8.numel());
  for (std::int64_t i = 0; i < y1.numel(); ++i) ASSERT_EQ(y1.flat()[i], y8.flat()[i]);
  ASSERT_EQ(c1.numel(), c8.numel());
  for (std::int64_t i = 0; i < c1.numel(); ++i) ASSERT_EQ(c1.flat()[i], c8.flat()[i]);
}

TEST(Determinism, KernelsRunOnTheCallingThread) {
  // Only units fan out: called outside any region at 4 threads, the GEMM,
  // conv and span-cast kernels run on the caller and dispatch no pool
  // unit, even on shapes the pool could split.
  ThreadCountGuard guard;
  set_num_threads(4);
  ASSERT_FALSE(in_parallel_region());
  Rng rng(23);
  LinearOp linear(randn(rng, {256, 512}), randn(rng, {256}));
  const Tensor linear_x = randn(rng, {64, 512});
  MatMulOp matmul(true, true);
  const Tensor matmul_a = randn(rng, {8, 64, 32});
  const Tensor matmul_b = randn(rng, {8, 64, 32});
  Conv2dOp conv(randn(rng, {32, 16, 3, 3}), randn(rng, {32}), 1, 1, 1);
  const Tensor conv_x = randn(rng, {8, 16, 32, 32});
  std::vector<float> in(1 << 20);
  for (float& v : in) v = rng.normal(0.0f, 3.0f);
  std::vector<float> out(in.size());

  set_trace_enabled(true);
  trace_reset();
  (void)linear.forward(std::array{&linear_x});
  (void)matmul.forward(std::array{&matmul_a, &matmul_b});
  (void)conv.forward(std::array{&conv_x});
  fp8_quantize_scaled_fast(in, out, fast_cast_spec(Fp8Kind::E4M3), 0.37f);
  int8_quantize(in, out, int8_symmetric_params(8.0f));
  const std::vector<SpanRecord> spans = trace_snapshot();
  set_trace_enabled(false);
  trace_reset();
  for (const SpanRecord& span : spans) EXPECT_NE(span.name, "parallel/task");
}

TEST(Determinism, AccuracyRecordsIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const auto workloads = sample_workloads();
  const EvalProtocol protocol = smoke_protocol();
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE3M4)};

  set_num_threads(1);
  const auto serial = evaluate_suite(workloads, schemes, protocol);
  ASSERT_EQ(serial.size(), workloads.size() * schemes.size());
  for (int threads : {2, 3, 8}) {
    set_num_threads(threads);
    const auto parallel = evaluate_suite(workloads, schemes, protocol);
    ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
    // Same pair order as the serial double loop, and bit-identical
    // metrics (exact double equality, no tolerance).
    for (size_t i = 0; i < serial.size(); ++i) expect_bit_identical(parallel[i], serial[i]);
  }
}

TEST(Determinism, OneEvaluationFansOutBitIdentically) {
  // make_eval_plan runs its teacher forwards through parallel_run, and
  // evaluate_with_plan its prepare and quantized forwards as
  // evaluate_pairs units. With more batches than threads, the plan, the record and the counter deltas at 4 threads must
  // equal the serial run's bit for bit.
  ThreadCountGuard guard;
  EvalProtocol protocol = smoke_protocol();
  protocol.eval_batches = 6;
  for (const Workload& w : sample_workloads()) {
    set_num_threads(1);
    const EvalPlan serial = make_eval_plan(w, protocol);
    set_num_threads(4);
    const EvalPlan parallel = make_eval_plan(w, protocol);
    ASSERT_EQ(serial.batches.size(), 6u);
    ASSERT_EQ(parallel.batches.size(), serial.batches.size());
    for (size_t b = 0; b < serial.batches.size(); ++b) {
      const std::string where = w.name + " batch " + std::to_string(b);
      const EvalPlan::PlanBatch& want = serial.batches[b];
      const EvalPlan::PlanBatch& got = parallel.batches[b];
      ASSERT_EQ(got.perturbed.size(), want.perturbed.size()) << where;
      for (size_t i = 0; i < want.perturbed.size(); ++i) {
        expect_bit_equal(got.perturbed[i], want.perturbed[i], where + " perturbed");
      }
      expect_bit_equal(got.clean_fp32_out, want.clean_fp32_out, where + " teacher");
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.fp32_score),
              std::bit_cast<std::uint64_t>(serial.fp32_score))
        << w.name;

    const std::pair<SchemeConfig, ObsFormat> cases[] = {
        {standard_fp8_scheme(DType::kE4M3), ObsFormat::kE4M3},
        {int8_scheme(w.domain != "CV"), ObsFormat::kInt8}};
    for (const auto& [scheme, format] : cases) {
      auto run_at = [&](int threads) {
        set_num_threads(threads);
        const CounterSnapshot before = counters_snapshot();
        AccuracyRecord record = evaluate_workload(w, scheme, protocol);
        return std::pair{std::move(record), counters_snapshot().since(before)};
      };
      set_counters_enabled(true);
      const auto [record1, counted1] = run_at(1);
      const auto [record4, counted4] = run_at(4);
      set_counters_enabled(false);
      expect_bit_identical(record4, record1);
      EXPECT_TRUE(counted4 == counted1) << w.name << " " << scheme.label();
      EXPECT_GT(counted1.get(format, ObsEvent::kQuantized), 0u) << w.name << " " << scheme.label();
    }
  }
}

TEST(Determinism, SuiteSharedPlanMatchesFreshPlanPerPair) {
  // evaluate_suite scores every pair of a workload against one shared
  // plan; each record must equal a fresh plan built for that pair alone.
  ThreadCountGuard guard;
  const auto workloads = wide_workloads();
  ASSERT_GT(workloads.size(), 8u);
  const EvalProtocol protocol = smoke_protocol();
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE3M4, true),
                                             standard_fp8_scheme(DType::kE5M2)};
  std::vector<AccuracyRecord> fresh;
  for (const auto& w : workloads) {
    for (const auto& scheme : schemes) {
      fresh.push_back(evaluate_with_plan(make_eval_plan(w, protocol),
                                         default_model_config(w, scheme, protocol)));
    }
  }
  for (int threads : {1, 2, 3, 8}) {
    set_num_threads(threads);
    const auto shared = evaluate_suite(workloads, schemes, protocol);
    ASSERT_EQ(shared.size(), fresh.size()) << "threads=" << threads;
    for (size_t i = 0; i < fresh.size(); ++i) expect_bit_identical(shared[i], fresh[i]);
  }
}

TEST(Determinism, SuiteBuildsEachWorkloadOncePerCall) {
  ThreadCountGuard guard;
  auto workloads = wide_workloads();
  std::vector<std::atomic<int>> builds(workloads.size());
  for (size_t i = 0; i < workloads.size(); ++i) {
    workloads[i].build = [inner = workloads[i].build, &count = builds[i]] {
      count.fetch_add(1);
      return inner();
    };
  }
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE3M4)};
  int calls = 0;
  for (int threads : {1, 2, 3, 8}) {
    set_num_threads(threads);
    (void)evaluate_suite(workloads, schemes, smoke_protocol());
    ++calls;
    for (size_t i = 0; i < workloads.size(); ++i) {
      EXPECT_EQ(builds[i].load(), calls) << workloads[i].name << " threads=" << threads;
    }
  }
}

TEST(Determinism, SuiteRethrowsTheLowerFailingWorkloadsException) {
  // Two workloads fail: the lower one slowly (its build runs, then waits,
  // before it throws), the higher one at once (no perturb). Every other
  // pair still runs, nothing hangs, and the lower workload's exception is
  // the one rethrown at any thread count, though the higher one fails
  // first in time when threads are free.
  ThreadCountGuard guard;
  auto suite = build_suite();
  Workload failing = find_workload(suite, "cv/superres-0");
  failing.name = "failing-build";
  failing.build = [inner = failing.build]() -> Graph {
    (void)inner();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw std::invalid_argument("failing-build");
  };
  Workload incomplete = find_workload(suite, "dlrm-ish");
  incomplete.name = "incomplete";
  incomplete.perturb = nullptr;
  const std::vector<Workload> workloads = {find_workload(suite, "nlp/distil-mlp-0"), failing,
                                           incomplete, find_workload(suite, "hubert-ish")};
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE3M4),
                                             standard_fp8_scheme(DType::kE5M2)};
  for (int threads : {1, 3, 8}) {
    set_num_threads(threads);
    std::atomic<int> completed{0};
    std::string message;
    try {
      (void)evaluate_suite(workloads, schemes, smoke_protocol(),
                           [&](int) { completed.fetch_add(1); });
    } catch (const std::invalid_argument& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "failing-build") << "threads=" << threads;
    EXPECT_EQ(completed.load(), 2 * static_cast<int>(schemes.size())) << "threads=" << threads;
  }
}

TEST(Determinism, OneThreadSuiteKeepsOnePlanAlive) {
  // At one thread the stream runs in key order: workload k's build starts
  // only after every pair of workload k - 1 has reported progress, so one
  // plan is alive at a time.
  ThreadCountGuard guard;
  set_num_threads(1);
  auto workloads = sample_workloads();
  std::atomic<int> completed{0};
  std::vector<int> completed_at_build(workloads.size(), -1);
  for (size_t i = 0; i < workloads.size(); ++i) {
    workloads[i].build = [inner = workloads[i].build, &completed, &at = completed_at_build[i]] {
      at = completed.load();
      return inner();
    };
  }
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3),
                                             standard_fp8_scheme(DType::kE5M2)};
  (void)evaluate_table2(workloads, schemes, smoke_protocol(),
                        [&](int done) { completed.store(done); });
  const int pairs = static_cast<int>(schemes.size()) + 1;
  for (size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(completed_at_build[i], static_cast<int>(i) * pairs) << workloads[i].name;
  }
  EXPECT_EQ(completed.load(), static_cast<int>(workloads.size()) * pairs);
}

TEST(Determinism, Table2RowsAreWorkloadMajorWithInt8Last) {
  ThreadCountGuard guard;
  set_num_threads(8);
  const auto suite = build_suite();
  const std::vector<Workload> workloads = {find_workload(suite, "cv/resnet-ish-c8-b2"),
                                           find_workload(suite, "distilbert-mrpc-ish")};
  const std::vector<SchemeConfig> fp8 = {standard_fp8_scheme(DType::kE4M3),
                                         standard_fp8_scheme(DType::kE5M2)};
  const EvalProtocol protocol = smoke_protocol();
  const auto rows = evaluate_table2(workloads, fp8, protocol);
  const size_t per_workload = fp8.size() + 1;
  ASSERT_EQ(rows.size(), workloads.size() * per_workload);
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    const Workload& w = workloads[wi];
    for (size_t j = 0; j < fp8.size(); ++j) {
      EXPECT_EQ(rows[wi * per_workload + j].workload, w.name);
      EXPECT_EQ(rows[wi * per_workload + j].config, fp8[j].label());
    }
    AccuracyRecord int8 = evaluate_workload(w, int8_scheme(w.domain != "CV"), protocol);
    int8.config = "INT8";
    expect_bit_identical(rows[wi * per_workload + fp8.size()], int8);
  }
}

TEST(Determinism, CastMagnitudeHistogramInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(91);
  std::vector<float> in(1 << 18);
  for (float& v : in) v = rng.normal(0.0f, 3.0f);
  std::vector<float> out(in.size());

  // Histograms on, tracing off: the cast_mag/* histograms classify each
  // element's pre-quantization |x*scale| (fp8/cast_fast.cpp), so the merged
  // bucket counts -- and every quantile -- must be bitwise-identical at
  // every thread count.
  set_histograms_enabled(true);
  auto run_at = [&](int threads) {
    histograms_reset();
    set_num_threads(threads);
    fp8_quantize_scaled_fast(in, out, fast_cast_spec(Fp8Kind::E4M3), 0.37f);
    return histogram_snapshot(ObsFormat::kE4M3);
  };
  const HistogramSnapshot serial = run_at(1);
  const HistogramSnapshot parallel4 = run_at(4);
  const HistogramSnapshot parallel8 = run_at(8);
  set_histograms_enabled(false);
  histograms_reset();

  EXPECT_EQ(serial.total, in.size());
  EXPECT_TRUE(serial == parallel4);
  EXPECT_TRUE(serial == parallel8);
  for (double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(serial.quantile(q), parallel8.quantile(q)) << "q=" << q;
  }
}

TEST(Determinism, HistogramsDoNotPerturbCastOutputs) {
  ThreadCountGuard guard;
  set_num_threads(4);
  Rng rng(5);
  std::vector<float> in(65536);
  for (float& v : in) v = rng.normal(0.0f, 2.0f);
  std::vector<float> plain(in.size());
  std::vector<float> histed(in.size());

  set_histograms_enabled(false);
  fp8_quantize_scaled_fast(in, plain, fast_cast_spec(Fp8Kind::E3M4), 1.7f);
  set_histograms_enabled(true);
  histograms_reset();
  fp8_quantize_scaled_fast(in, histed, fast_cast_spec(Fp8Kind::E3M4), 1.7f);
  set_histograms_enabled(false);
  histograms_reset();

  for (size_t i = 0; i < in.size(); ++i) ASSERT_EQ(plain[i], histed[i]) << i;
}

TEST(Determinism, CountersDoNotPerturbAccuracyRecords) {
  ThreadCountGuard guard;
  set_num_threads(8);
  const auto workloads = sample_workloads();
  const EvalProtocol protocol = smoke_protocol();
  const std::vector<SchemeConfig> schemes = {standard_fp8_scheme(DType::kE4M3)};

  // Event counting classifies from values the cast computes anyway and
  // never feeds back into outputs (obs/counters.h) -- the records must be
  // bit-identical with counting on and off.
  set_counters_enabled(false);
  const auto plain = evaluate_suite(workloads, schemes, protocol);
  set_counters_enabled(true);
  counters_reset();
  const auto counted = evaluate_suite(workloads, schemes, protocol);
  const CounterSnapshot totals = counters_snapshot();
  set_counters_enabled(false);

  ASSERT_EQ(plain.size(), counted.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].fp32_accuracy, counted[i].fp32_accuracy) << plain[i].workload;
    EXPECT_EQ(plain[i].quant_accuracy, counted[i].quant_accuracy) << plain[i].workload;
    EXPECT_EQ(plain[i].model_size_mb, counted[i].model_size_mb) << plain[i].workload;
  }
  // ...and the counted run actually counted: an E4M3 evaluation pushes
  // every weight and activation through the instrumented casts.
  EXPECT_GT(totals.get(ObsFormat::kE4M3, ObsEvent::kQuantized), 0u);
}

TEST(Determinism, NoUnorderedIterationInLibrarySources) {
  // Regression lock for the structural side of this contract: range-for
  // over an unordered container is iteration in hash/address order — a
  // determinism leak the moment it reaches any output. The 2026-08 sweep
  // left src/ free of them (every emitter sorts or uses std::map); the
  // fp8q_lint unordered-iteration rule keeps it that way, and this assert
  // keeps the failure inside the determinism suite where the contract
  // lives (docs/STATIC_ANALYSIS.md).
  std::string errors;
  const auto findings = lint::lint_tree(FP8Q_LINT_SRC_ROOT, &errors);
  ASSERT_TRUE(errors.empty()) << errors;
  for (const auto& f : findings) {
    if (f.rule == "unordered-iteration") {
      ADD_FAILURE() << lint::format_finding(f);
    }
  }
}

}  // namespace
}  // namespace fp8q
