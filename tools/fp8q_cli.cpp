// fp8q command-line tool.
//
//   fp8q_cli formats                      FP8 format constants (Table 1)
//   fp8q_cli cast <value> <fmt>           quantize one value (fmt: E5M2/E4M3/E3M4)
//   fp8q_cli list                         list the 75 study workloads
//   fp8q_cli eval <workload> <fmt> [dyn]  PTQ + evaluate one workload
//   fp8q_cli tune <workload> <fmt>        accuracy-driven auto-tuning
//   fp8q_cli sweep <out.csv> [quick]      full Table-2 sweep to CSV
//
// `eval` and `tune` honor FP8Q_REPORT=<path> (and FP8Q_TRACE=1): the run
// emits a structured JSON report with quantization-event counters and,
// for tune, one stage per trial -- see docs/OBSERVABILITY.md and the
// "Debugging a failed tuning trial" walkthrough in EXPERIMENTS.md. With
// FP8Q_TRACE=1 FP8Q_TRACE_JSON=<path> the span tree is also exported as
// Chrome trace-event JSON (open in ui.perfetto.dev).
//
// Exit status: 0 on success, 1 when `eval` scores a FAIL or `tune` does
// not meet the criterion, 2 on a usage error or any other error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/fp8q.h"
#include "obs/trace_export.h"

using namespace fp8q;

namespace {

int cmd_formats() {
  std::printf("%-8s %6s %6s %6s %14s %14s %10s\n", "format", "e", "m", "bias", "max",
              "min subnormal", "infinity");
  for (Fp8Kind kind : kAllFp8Kinds) {
    const auto& f = format_spec(kind);
    std::printf("%-8s %6d %6d %6d %14.6g %14.6g %10s\n",
                std::string(to_string(kind)).c_str(), f.exp_bits, f.man_bits, f.bias,
                f.max_value(), f.min_subnormal(), f.has_infinity() ? "yes" : "no");
  }
  return 0;
}

int cmd_cast(const char* value_str, const char* fmt_str) {
  float value = 0.0f;
  const char* end = value_str + std::strlen(value_str);
  const auto [ptr, ec] = std::from_chars(value_str, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "error: cast value '%s' is not a float\n", value_str);
    return 2;
  }
  const Fp8Kind kind = fp8_kind_from_string(fmt_str);
  const std::uint8_t code = fp8_encode(value, kind);
  std::printf("%g -> %s: value %g, code 0x%02X, abs error %g\n", value,
              std::string(to_string(kind)).c_str(), fp8_quantize(value, kind), code,
              std::fabs(value - fp8_quantize(value, kind)));
  return 0;
}

int cmd_list() {
  const auto suite = build_suite();
  std::printf("%-26s %-6s %-22s %-18s %10s\n", "name", "domain", "task", "family",
              "size (MB)");
  for (const auto& w : suite) {
    Graph g = w.build();
    std::printf("%-26s %-6s %-22s %-18s %10.3f\n", w.name.c_str(), w.domain.c_str(),
                w.task.c_str(), w.family.c_str(), g.size_mb());
  }
  return 0;
}

int cmd_eval(const char* workload, const char* fmt, bool dynamic) {
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, workload);
  RunReport report;
  report.tool = "fp8q_cli eval";
  report.num_threads = num_threads();
  report.isa = isa_label();
  set_active_report(&report);
  const auto rec = evaluate_workload(w, scheme_from_name(fmt, dynamic));
  set_active_report(nullptr);
  std::printf("workload:  %s (%s, %s)\n", rec.workload.c_str(), rec.domain.c_str(),
              w.task.c_str());
  std::printf("config:    %s\n", rec.config.c_str());
  std::printf("fp32:      %.4f\n", rec.fp32_accuracy);
  std::printf("quantized: %.4f\n", rec.quant_accuracy);
  std::printf("loss:      %.2f%%  -> %s (criterion: <= 1%% relative loss)\n",
              100.0 * rec.relative_loss(), rec.passes() ? "PASS" : "FAIL");
  report.records.push_back(rec);
  if (write_report_if_requested(report)) {
    std::fprintf(stderr, "[eval] report written to %s\n", report_env_path());
  }
  if (write_chrome_trace_if_requested()) {
    std::fprintf(stderr, "[eval] chrome trace written to %s\n", trace_json_env_path());
  }
  return rec.passes() ? 0 : 1;
}

int cmd_tune(const char* workload, const char* fmt) {
  const DType preferred = fp8_dtype(fp8_kind_from_string(fmt));
  const auto suite = build_suite();
  const Workload& w = find_workload(suite, workload);
  RunReport report;
  report.tool = "fp8q_cli tune";
  report.num_threads = num_threads();
  report.isa = isa_label();
  set_active_report(&report);
  const TuneResult r = autotune(w, preferred);
  set_active_report(nullptr);
  for (const auto& step : r.history) {
    std::printf("%-30s loss %6.2f%%  %s\n", step.description.c_str(),
                100.0 * step.record.relative_loss(), step.met ? "MET" : "");
    report.records.push_back(step.record);
  }
  std::printf("%s; best %s at %.2f%% loss (%d trials)\n",
              r.success ? "criterion met" : "criterion not met",
              r.best.scheme.label().c_str(), 100.0 * r.best_record.relative_loss(),
              r.trials());
  if (write_report_if_requested(report)) {
    std::fprintf(stderr, "[tune] report written to %s\n", report_env_path());
  }
  if (write_chrome_trace_if_requested()) {
    std::fprintf(stderr, "[tune] chrome trace written to %s\n", trace_json_env_path());
  }
  return r.success ? 0 : 1;
}

int cmd_sweep(const char* out_path, bool quick) {
  // Opened before the sweep so a bad path fails in milliseconds, not
  // after every workload has been evaluated.
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", out_path);
    return 2;
  }
  auto suite = build_suite();
  if (quick) suite = quick_suite(suite);
  const auto records = evaluate_table2(suite, table2_fp8_schemes(), {}, [&](int done) {
    std::fprintf(stderr, "\r%d/%zu", done, 6 * suite.size());
  });
  std::fprintf(stderr, "\n");
  records_to_csv(records, out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: failed writing %s\n", out_path);
    return 2;
  }
  std::printf("wrote %zu records to %s\n", records.size(), out_path);
  for (const char* config : {"E5M2/direct", "E4M3/static", "E4M3/dynamic", "E3M4/static",
                             "E3M4/dynamic", "INT8"}) {
    const auto sel = filter_config(records, config);
    std::printf("%-14s pass rate: CV %6.2f%%  NLP %6.2f%%  All %6.2f%%\n", config,
                pass_rate(filter_domain(sel, "CV")), pass_rate(filter_domain(sel, "NLP")),
                pass_rate(sel));
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fp8q_cli formats\n"
               "       fp8q_cli cast <value> <E5M2|E4M3|E3M4>\n"
               "       fp8q_cli list\n"
               "       fp8q_cli eval <workload> <E5M2|E4M3|E3M4|INT8|mixed> [dynamic]\n"
               "       fp8q_cli tune <workload> <E5M2|E4M3|E3M4>\n"
               "       fp8q_cli sweep <out.csv> [quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "formats") return cmd_formats();
    if (cmd == "cast" && argc >= 4) return cmd_cast(argv[2], argv[3]);
    if (cmd == "list") return cmd_list();
    if (cmd == "eval" && argc >= 4) {
      return cmd_eval(argv[2], argv[3], argc >= 5 && std::strcmp(argv[4], "dynamic") == 0);
    }
    if (cmd == "tune" && argc >= 4) return cmd_tune(argv[2], argv[3]);
    if (cmd == "sweep" && argc >= 3) {
      return cmd_sweep(argv[2], argc >= 4 && std::strcmp(argv[3], "quick") == 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
