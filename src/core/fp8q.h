// fp8q -- umbrella public header.
//
// A C++20 library reproducing "Efficient Post-training Quantization with
// FP8 Formats" (MLSys 2024): software-emulated E5M2 / E4M3 / E3M4 (and
// generic EeMm) casting, an INT8 baseline, a dataflow-graph NN substrate,
// the paper's standard + extended post-training quantization schemes
// (per-channel weights, per-tensor activations, SmoothQuant, BatchNorm
// calibration, mixed formats, dynamic quantization), an accuracy-driven
// auto-tuner and the 75-workload study suite.
//
// The three FP8 formats (paper Table 1) at a glance -- every byte is
// 1 sign bit, e exponent bits, m mantissa bits (1 + e + m == 8), with
// signed zero and gradual underflow via subnormals:
//
//   format  layout        bias  max finite  min subnormal  Inf?  NaN codes
//   E5M2    s eeeee mm      15     57344        1.53e-5    yes   6 (0x7D-7F/FD-FF)
//   E4M3    s eeee mmm       7       448        1.95e-3    no    2 (0x7F/0xFF)
//   E3M4    s eee mmmm       3        30        1.56e-2    no    2 (0x7F/0xFF)
//
// E5M2 is IEEE-like: a scaled-down binary16 whose all-ones exponent field
// is reserved (mantissa == 0 encodes +/-Inf, mantissa != 0 a NaN). E4M3
// and E3M4 use the paper's extended encoding: the all-ones exponent field
// holds ordinary values, only the single all-ones exponent+mantissa
// pattern per sign is NaN, and there is no Inf -- buying one extra binade
// of finite range. Casts SATURATE: any value beyond the max finite
// magnitude (including +/-Inf inputs) clamps to +/-max rather than
// producing Inf/NaN, which is what PTQ wants after range calibration.
// NaN inputs stay NaN.
//
// Quick start:
//
//   #include "core/fp8q.h"
//   using namespace fp8q;
//
//   Graph model = make_transformer_encoder({});   // or your own Graph
//   ModelQuantConfig cfg;
//   cfg.scheme = standard_fp8_scheme(DType::kE4M3);
//   Graph copy = model.clone();                   // prepare() rewrites weights
//   QuantizedGraph qg(&copy, cfg);
//   qg.prepare(calibration_batches);              // PTQ pipeline, once
//   Tensor logits = qg.forward(input);            // FP8 inference
//
// Evaluations, suite sweeps and the tuner run their batches and trials on
// a global thread pool (core/parallel.h); each kernel runs on the thread
// that calls it. Results are bit-identical at any thread count; size the
// pool with FP8Q_NUM_THREADS or set_num_threads() (docs/THREADING.md).
#pragma once

#include "core/cpu_dispatch.h" // IWYU pragma: export
#include "core/parallel.h" // IWYU pragma: export
#include "fp8/cast.h"      // IWYU pragma: export
#include "fp8/format.h"    // IWYU pragma: export
#include "fp8/int8.h"      // IWYU pragma: export
#include "io/serialize.h"   // IWYU pragma: export
#include "metrics/metrics.h"   // IWYU pragma: export
#include "metrics/passrate.h"  // IWYU pragma: export
#include "models/generation.h"  // IWYU pragma: export
#include "models/zoo.h"    // IWYU pragma: export
#include "nn/conv.h"       // IWYU pragma: export
#include "nn/elementwise.h"  // IWYU pragma: export
#include "nn/embedding.h"  // IWYU pragma: export
#include "nn/gemm.h"       // IWYU pragma: export
#include "nn/graph.h"      // IWYU pragma: export
#include "nn/linear.h"     // IWYU pragma: export
#include "nn/matmul.h"     // IWYU pragma: export
#include "nn/norm.h"       // IWYU pragma: export
#include "nn/shape_ops.h"  // IWYU pragma: export
#include "obs/counters.h"  // IWYU pragma: export
#include "obs/report.h"    // IWYU pragma: export
#include "obs/trace.h"     // IWYU pragma: export
#include "quant/calibrate.h"       // IWYU pragma: export
#include "quant/observer.h"        // IWYU pragma: export
#include "quant/qconfig.h"         // IWYU pragma: export
#include "quant/quantized_graph.h" // IWYU pragma: export
#include "quant/quantizer.h"       // IWYU pragma: export
#include "quant/smoothquant.h"     // IWYU pragma: export
#include "tensor/rng.h"    // IWYU pragma: export
#include "tensor/stats.h"  // IWYU pragma: export
#include "tensor/tensor.h" // IWYU pragma: export
#include "tune/tuner.h"    // IWYU pragma: export
#include "workloads/registry.h"  // IWYU pragma: export
#include "workloads/workload.h"  // IWYU pragma: export

namespace fp8q {

/// Library semantic version.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace fp8q
