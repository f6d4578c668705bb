#include "fp8q_report_lib.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "io/serialize.h"
#include "metrics/passrate.h"

namespace fp8q::report_cli {

namespace {

std::string human_bytes(std::uint64_t bytes) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  const auto b = static_cast<double>(bytes);
  if (bytes >= (1ull << 30)) os << b / (1ull << 30) << " GiB";
  else if (bytes >= (1ull << 20)) os << b / (1ull << 20) << " MiB";
  else if (bytes >= (1ull << 10)) os << b / (1ull << 10) << " KiB";
  else os << bytes << " B";
  return os.str();
}

void print_counters(std::ostream& os, const CounterSnapshot& snap, const char* indent) {
  for (int f = 0; f < kObsFormatCount; ++f) {
    bool any = false;
    for (int e = 0; e < kObsEventCount; ++e) any = any || snap.counts[f][e] != 0;
    if (!any) continue;
    os << indent << to_string(static_cast<ObsFormat>(f)) << ":";
    for (int e = 0; e < kObsEventCount; ++e) {
      os << "  " << to_string(static_cast<ObsEvent>(e)) << "=" << snap.counts[f][e];
    }
    os << "\n";
  }
}

/// Percent growth of candidate over base; +inf when base is 0 and the
/// candidate is not.
double growth_pct(double base, double candidate) {
  if (base > 0.0) return (candidate - base) / base * 100.0;
  return candidate > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

/// Pairs each base element with the first unused candidate element that
/// `same` matches, so repeated keys pair up by occurrence index. Returns
/// the candidate index per base element (-1 when unmatched); `used` marks
/// the candidate elements taken.
template <class T, class Same>
std::vector<std::ptrdiff_t> pair_by_occurrence(const std::vector<T>& base,
                                               const std::vector<T>& candidate,
                                               std::vector<bool>& used, Same same) {
  used.assign(candidate.size(), false);
  std::vector<std::ptrdiff_t> match;
  match.reserve(base.size());
  for (const T& b : base) {
    std::ptrdiff_t found = -1;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (!used[i] && same(b, candidate[i])) {
        used[i] = true;
        found = static_cast<std::ptrdiff_t>(i);
        break;
      }
    }
    match.push_back(found);
  }
  return match;
}

struct Gate {
  std::ostream& out;
  int breaches = 0;

  void check(bool breach, const std::string& line) {
    out << (breach ? "FAIL  " : "  ok  ") << line << "\n";
    if (breach) ++breaches;
  }
  void note(const std::string& line) { out << "note  " << line << "\n"; }
};

std::string pct(double v) {
  std::ostringstream os;
  if (std::isinf(v)) {
    os << (v > 0 ? "+inf%" : "-inf%");
  } else {
    os << std::showpos << std::fixed << std::setprecision(2) << v << "%";
  }
  return os.str();
}

/// "cast <format> counted|uncounted" for one bench_kernels cast row.
std::string cast_label(const json::Value& row) {
  const json::Value* counted = row.find("counted");
  const bool tallied = counted != nullptr && counted->kind == json::Value::Kind::kBool &&
                       counted->boolean;
  return "cast " + row.string_or("format") + (tallied ? " counted" : " uncounted");
}

}  // namespace

std::string format_report(const RunReport& report) {
  std::ostringstream os;
  os << "report: tool=" << (report.tool.empty() ? "(unset)" : report.tool)
     << " threads=" << report.num_threads << "\n";

  os << "memory: peak_rss=" << human_bytes(report.memory.peak_rss_bytes)
     << " tensor_alloc=" << human_bytes(report.memory.alloc_bytes) << " ("
     << report.memory.allocs << " allocations)\n";

  if (!report.stages.empty()) {
    os << "stages (" << report.stages.size() << "):\n";
    for (const auto& s : report.stages) {
      os << "  " << std::left << std::setw(40) << s.name << std::right << std::fixed
         << std::setprecision(3) << std::setw(12) << s.wall_ms << " ms";
      if (s.allocs != 0) os << "  alloc " << human_bytes(s.alloc_bytes);
      os << "\n";
    }
  }

  if (report.counters.any()) {
    os << "counters:\n";
    print_counters(os, report.counters, "  ");
  }

  if (!report.histograms.empty()) {
    os << "histograms (" << report.histograms.size() << "):\n";
    for (const auto& nh : report.histograms) {
      const auto& h = nh.hist;
      os << "  " << std::left << std::setw(30) << nh.name << std::right
         << " n=" << std::setw(10) << h.total << std::scientific << std::setprecision(3)
         << "  min=" << h.min_value << "  p50=" << h.quantile(0.50)
         << "  p95=" << h.quantile(0.95) << "  p99=" << h.quantile(0.99)
         << "  max=" << h.max_value << "\n";
      os << std::defaultfloat;
    }
  }

  if (!report.records.empty()) {
    os << "records (" << report.records.size()
       << "), pass rate: " << std::fixed << std::setprecision(1)
       << pass_rate(report.records) << "%\n";
    for (const auto& r : report.records) {
      os << "  " << (r.passes() ? "pass" : "FAIL") << "  " << std::left << std::setw(24)
         << r.workload << " " << std::setw(16) << r.config << std::right << std::fixed
         << std::setprecision(4) << " fp32=" << r.fp32_accuracy
         << " quant=" << r.quant_accuracy << " rel_loss=" << std::setprecision(5)
         << r.relative_loss() << "\n";
    }
  }

  if (report.spans_dropped != 0) {
    os << "spans_dropped: " << report.spans_dropped << "\n";
  }
  return os.str();
}

int diff_reports(const RunReport& base, const RunReport& candidate,
                 const DiffThresholds& t, std::ostream& out) {
  Gate gate{out};

  if (t.max_wall_regress_pct >= 0.0) {
    // Stages matched by (name, occurrence index): duplicate names pair up
    // in order. Unmatched stages are noted, never failed.
    std::vector<bool> used;
    const auto match = pair_by_occurrence(
        base.stages, candidate.stages, used,
        [](const StageReport& a, const StageReport& b) { return a.name == b.name; });
    for (std::size_t s = 0; s < base.stages.size(); ++s) {
      const StageReport& bs = base.stages[s];
      if (match[s] < 0) {
        gate.note("stage '" + bs.name + "' missing from candidate");
        continue;
      }
      const StageReport* cs = &candidate.stages[static_cast<std::size_t>(match[s])];
      const double g = growth_pct(bs.wall_ms, cs->wall_ms);
      std::ostringstream line;
      line << "stage '" << bs.name << "' wall " << std::fixed << std::setprecision(3)
           << bs.wall_ms << " -> " << cs->wall_ms << " ms (" << pct(g)
           << ", limit +" << t.max_wall_regress_pct << "%)";
      gate.check(g > t.max_wall_regress_pct, line.str());
    }
    for (std::size_t i = 0; i < candidate.stages.size(); ++i) {
      if (!used[i]) gate.note("stage '" + candidate.stages[i].name + "' new in candidate");
    }
  }

  if (t.max_counter_drift_pct >= 0.0) {
    for (int f = 0; f < kObsFormatCount; ++f) {
      for (int e = 0; e < kObsEventCount; ++e) {
        const std::uint64_t b = base.counters.counts[f][e];
        const std::uint64_t c = candidate.counters.counts[f][e];
        if (b == 0 && c == 0) continue;
        const double drift =
            b == 0 ? std::numeric_limits<double>::infinity()
                   : std::fabs(static_cast<double>(c) - static_cast<double>(b)) /
                         static_cast<double>(b) * 100.0;
        std::ostringstream line;
        line << "counter " << to_string(static_cast<ObsFormat>(f)) << "/"
             << to_string(static_cast<ObsEvent>(e)) << " " << b << " -> " << c << " ("
             << pct(drift) << " drift, limit " << t.max_counter_drift_pct << "%)";
        gate.check(drift > t.max_counter_drift_pct, line.str());
      }
    }
  }

  if (t.max_accuracy_drop >= 0.0 || t.max_pass_rate_drop >= 0.0) {
    if (t.max_accuracy_drop >= 0.0) {
      // Records are matched by (workload, config, occurrence index), like
      // stages: a tuner report repeats a config across trials. They must
      // match both ways: a record in only one report is a dropped or
      // renamed pair.
      std::vector<bool> used;
      const auto match = pair_by_occurrence(
          base.records, candidate.records, used,
          [](const AccuracyRecord& a, const AccuracyRecord& b) {
            return a.workload == b.workload && a.config == b.config;
          });
      for (std::size_t r = 0; r < base.records.size(); ++r) {
        const AccuracyRecord& br = base.records[r];
        if (match[r] < 0) {
          gate.check(true, "record " + br.workload + "/" + br.config + " missing from candidate");
          continue;
        }
        const AccuracyRecord* cr = &candidate.records[static_cast<std::size_t>(match[r])];
        const std::pair<const char*, double AccuracyRecord::*> fields[] = {
            {"fp32_accuracy", &AccuracyRecord::fp32_accuracy},
            {"quant_accuracy", &AccuracyRecord::quant_accuracy}};
        for (const auto& [name, field] : fields) {
          const double drop = br.*field - cr->*field;
          std::ostringstream line;
          line << "record " << br.workload << "/" << br.config << " " << name << " "
               << std::fixed << std::setprecision(5) << br.*field << " -> " << cr->*field
               << " (drop " << drop << ", limit " << t.max_accuracy_drop << ")";
          gate.check(drop > t.max_accuracy_drop, line.str());
        }
      }
      for (std::size_t i = 0; i < candidate.records.size(); ++i) {
        if (!used[i]) {
          const AccuracyRecord& cr = candidate.records[i];
          gate.check(true, "record " + cr.workload + "/" + cr.config + " missing from base");
        }
      }
    }
    if (t.max_pass_rate_drop >= 0.0 && (!base.records.empty() || !candidate.records.empty())) {
      const double drop = pass_rate(base.records) - pass_rate(candidate.records);
      std::ostringstream line;
      line << "pass rate " << std::fixed << std::setprecision(1) << pass_rate(base.records)
           << "% -> " << pass_rate(candidate.records) << "% (drop " << drop
           << " pts, limit " << t.max_pass_rate_drop << ")";
      gate.check(drop > t.max_pass_rate_drop, line.str());
    }
  }

  if (t.max_alloc_growth_pct >= 0.0) {
    // Bytes and allocation counts, each under the same limit, so more
    // allocations of the same total bytes fail too.
    const auto alloc_gate = [&](const char* what, std::uint64_t b, std::uint64_t c) {
      const double g = growth_pct(static_cast<double>(b), static_cast<double>(c));
      std::ostringstream line;
      line << "tensor " << what << " " << b << " -> " << c << " (" << pct(g) << ", limit +"
           << t.max_alloc_growth_pct << "%)";
      gate.check(g > t.max_alloc_growth_pct, line.str());
    };
    alloc_gate("alloc bytes", base.memory.alloc_bytes, candidate.memory.alloc_bytes);
    alloc_gate("allocations", base.memory.allocs, candidate.memory.allocs);
  }

  if (t.max_rss_growth_pct >= 0.0) {
    const double g = growth_pct(static_cast<double>(base.memory.peak_rss_bytes),
                                static_cast<double>(candidate.memory.peak_rss_bytes));
    std::ostringstream line;
    line << "peak RSS " << base.memory.peak_rss_bytes << " -> "
         << candidate.memory.peak_rss_bytes << " (" << pct(g) << ", limit +"
         << t.max_rss_growth_pct << "%)";
    gate.check(g > t.max_rss_growth_pct, line.str());
  }

  return gate.breaches;
}

std::vector<std::string> validate_chrome_trace(std::string_view json_text) {
  std::vector<std::string> problems;
  json::Value root;
  try {
    root = json::parse(json_text);
  } catch (const std::exception& e) {
    problems.emplace_back(e.what());
    return problems;
  }
  if (!root.is_object()) {
    problems.emplace_back("top level is not an object");
    return problems;
  }
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    problems.emplace_back("missing traceEvents array");
    return problems;
  }

  struct XEvent {
    double ts = 0.0;
    double dur = 0.0;
  };
  std::vector<std::pair<double, XEvent>> x_by_tid;  // (tid, event)
  std::unordered_set<long long> flow_starts;
  std::vector<long long> flow_finishes;

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      problems.push_back(at + " is not an object");
      continue;
    }
    const std::string ph = e.string_or("ph");
    if (ph.empty()) {
      problems.push_back(at + " missing ph");
      continue;
    }
    for (const char* key : {"name", "pid", "tid", "ts"}) {
      if (e.find(key) == nullptr) problems.push_back(at + " missing " + key);
    }
    if (ph == "X") {
      const json::Value* dur = e.find("dur");
      if (dur == nullptr || dur->kind != json::Value::Kind::kNumber || dur->number < 0.0) {
        problems.push_back(at + " X event needs a non-negative dur");
        continue;
      }
      x_by_tid.emplace_back(e.number_or("tid"), XEvent{e.number_or("ts"), dur->number});
    } else if (ph == "s") {
      flow_starts.insert(static_cast<long long>(e.number_or("id", -1.0)));
    } else if (ph == "f") {
      flow_finishes.push_back(static_cast<long long>(e.number_or("id", -1.0)));
    }
  }

  for (const long long id : flow_finishes) {
    if (flow_starts.find(id) == flow_starts.end()) {
      problems.push_back("flow finish id " + std::to_string(id) + " has no matching start");
    }
  }

  // Per-thread nesting: sorted by (start asc, duration desc), every X event
  // must lie entirely inside the enclosing open interval (stack discipline;
  // partial overlap means a corrupt span tree).
  std::stable_sort(x_by_tid.begin(), x_by_tid.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.ts != b.second.ts) return a.second.ts < b.second.ts;
    return a.second.dur > b.second.dur;
  });
  constexpr double kSlopUs = 1e-6;
  std::vector<double> open_ends;
  for (std::size_t i = 0; i < x_by_tid.size(); ++i) {
    if (i > 0 && x_by_tid[i].first != x_by_tid[i - 1].first) open_ends.clear();
    const XEvent& ev = x_by_tid[i].second;
    while (!open_ends.empty() && open_ends.back() <= ev.ts + kSlopUs) open_ends.pop_back();
    if (!open_ends.empty() && ev.ts + ev.dur > open_ends.back() + kSlopUs) {
      problems.push_back("X events overlap without nesting on tid " +
                         std::to_string(static_cast<long long>(x_by_tid[i].first)));
    }
    open_ends.push_back(ev.ts + ev.dur);
  }
  return problems;
}

int check_bench(const json::Value& bench, double min_dispatch_speedup, double min_jobs_per_sec,
                std::ostream& out) {
  Gate gate{out};
  const json::Value* casts = bench.is_object() ? bench.find("cast") : nullptr;
  const json::Value* service = bench.is_object() ? bench.find("service") : nullptr;
  const bool has_casts = casts != nullptr && casts->is_array() && !casts->array.empty();
  const bool has_service = service != nullptr && service->is_object();
  // A snapshot must carry at least one gateable section: kernel numbers
  // (bench_kernels) or service numbers (fp8qd_bench).
  if (!has_casts && !has_service) {
    gate.check(true, "bench json has no cast or service measurements");
    return gate.breaches;
  }
  if (min_dispatch_speedup > 0.0) {
    // Every dispatched kernel row: "cast" in elements/s per format and
    // tally, "gemm" in GFLOP/s per shape, "gelu" in elements/s per length.
    // Each section must be present.
    for (const char* section : {"cast", "gemm", "gelu"}) {
      const json::Value* rows = bench.is_object() ? bench.find(section) : nullptr;
      if (rows == nullptr || !rows->is_array() || rows->array.empty()) {
        gate.check(true, std::string("bench json has no ") + section + " measurements");
        continue;
      }
      const bool gemm = std::string_view(section) == "gemm";
      for (const json::Value& row : rows->array) {
        if (!row.is_object()) continue;
        const double scalar = row.number_or(gemm ? "scalar_gflops" : "scalar_elems_per_sec");
        const double fast = row.number_or(gemm ? "gflops" : "elems_per_sec");
        const double speedup = row.number_or("speedup", scalar > 0.0 ? fast / scalar : 0.0);
        std::ostringstream line;
        if (gemm) {
          line << "gemm " << row.number_or("m") << "x" << row.number_or("k") << "x"
               << row.number_or("n");
        } else if (std::string_view(section) == "cast") {
          line << cast_label(row);
        } else {
          line << "gelu n=" << static_cast<long long>(row.number_or("n"));
        }
        line << " dispatched/scalar speedup " << std::fixed << std::setprecision(2) << speedup
             << "x (min " << min_dispatch_speedup << "x)";
        gate.check(speedup < min_dispatch_speedup, line.str());
      }
    }
  }
  if (min_jobs_per_sec > 0.0) {
    if (!has_service) {
      gate.check(true, "bench json has no service measurements");
      return gate.breaches;
    }
    const double jobs_per_sec = service->number_or("jobs_per_sec");
    std::ostringstream line;
    line << "service sustained " << std::fixed << std::setprecision(2) << jobs_per_sec
         << " jobs/sec (min " << min_jobs_per_sec << ")";
    gate.check(jobs_per_sec < min_jobs_per_sec, line.str());
    if (const json::Value* latency = service->find("latency_ms");
        latency != nullptr && latency->is_object()) {
      std::ostringstream tail;
      tail << "service latency p50/p95/p99 " << std::fixed << std::setprecision(1)
           << latency->number_or("p50") << "/" << latency->number_or("p95") << "/"
           << latency->number_or("p99") << " ms over "
           << static_cast<std::uint64_t>(latency->number_or("count")) << " jobs";
      gate.note(tail.str());
    }
    // Worker-count scaling rows (fp8qd_bench --append across daemon
    // restarts): surface the whole curve so a CI log shows how jobs/sec
    // moved with FP8QD_WORKERS, not just the gated final run.
    if (const json::Value* runs = bench.find("runs");
        runs != nullptr && runs->is_array() && runs->array.size() > 1) {
      for (const json::Value& row : runs->array) {
        if (!row.is_object()) continue;
        std::ostringstream run_note;
        run_note << "service run: workers=" << static_cast<int>(row.number_or("workers", 1.0))
                 << " sustained " << std::fixed << std::setprecision(2)
                 << row.number_or("jobs_per_sec") << " jobs/sec ("
                 << static_cast<int>(row.number_or("completed")) << " jobs, "
                 << static_cast<int>(row.number_or("queue_full_retries")) << " retries)";
        gate.note(run_note.str());
      }
    }
  }
  return gate.breaches;
}

int diff_bench(const json::Value& base, const json::Value& candidate,
               double max_regress_pct, std::ostream& out) {
  Gate gate{out};
  auto gate_rate = [&](const std::string& what, double b, double c) {
    const double regress = b > 0.0 ? (b - c) / b * 100.0 : 0.0;
    std::ostringstream line;
    line << what << " " << std::scientific << std::setprecision(3) << b << " -> " << c
         << " (" << pct(-regress) << ", limit -" << max_regress_pct << "%)";
    gate.check(regress > max_regress_pct, line.str());
  };

  const json::Value* base_casts = base.is_object() ? base.find("cast") : nullptr;
  const json::Value* cand_casts = candidate.is_object() ? candidate.find("cast") : nullptr;
  if (base_casts != nullptr && base_casts->is_array() && cand_casts != nullptr &&
      cand_casts->is_array()) {
    for (const json::Value& bc : base_casts->array) {
      const std::string label = cast_label(bc);
      for (const json::Value& cc : cand_casts->array) {
        if (cast_label(cc) != label) continue;
        gate_rate(label + " elem/s", bc.number_or("elems_per_sec"), cc.number_or("elems_per_sec"));
        break;
      }
    }
  }

  // "matmul" (MatMulOp) and "gemm" (the dispatched kernel) rows both
  // carry per-shape GFLOP/s.
  for (const char* section : {"matmul", "gemm"}) {
    const json::Value* base_rows = base.is_object() ? base.find(section) : nullptr;
    const json::Value* cand_rows = candidate.is_object() ? candidate.find(section) : nullptr;
    if (base_rows == nullptr || !base_rows->is_array() || cand_rows == nullptr ||
        !cand_rows->is_array()) {
      continue;
    }
    for (const json::Value& bm : base_rows->array) {
      for (const json::Value& cm : cand_rows->array) {
        if (cm.number_or("m") != bm.number_or("m") ||
            cm.number_or("k") != bm.number_or("k") ||
            cm.number_or("n") != bm.number_or("n")) {
          continue;
        }
        std::ostringstream shape;
        shape << section << " " << bm.number_or("m") << "x" << bm.number_or("k") << "x"
              << bm.number_or("n") << " GFLOP/s";
        gate_rate(shape.str(), bm.number_or("gflops"), cm.number_or("gflops"));
        break;
      }
    }
  }
  return gate.breaches;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

RunReport load_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return report_from_json(in);
}

/// --key=value flag; returns true and parses the value when it matches.
bool flag_value(const std::string& arg, const char* name, double* out_value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out_value = std::stod(arg.substr(prefix.size()));
  return true;
}

constexpr const char* kUsage =
    "usage: fp8q_report <command> ...\n"
    "  print <report.json>\n"
    "  diff <base.json> <candidate.json> [--max-wall-regress-pct=P]\n"
    "       [--max-alloc-growth-pct=P] [--max-rss-growth-pct=P]\n"
    "       [--max-accuracy-drop=D] [--max-pass-rate-drop=P]\n"
    "       [--max-counter-drift-pct=P]   (negative disables a check)\n"
    "  check-trace <trace.json>\n"
    "  check-bench <BENCH.json> [--min-dispatch-speedup=S]\n"
    "                                       (cast, gemm and gelu rows; <= 0 skips)\n"
    "       [--min-jobs-per-sec=J]          (<= 0 skips the service gate)\n"
    "  diff-bench <base_BENCH.json> <candidate_BENCH.json> [--max-regress-pct=P]\n";

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  try {
    if (args.empty()) {
      err << kUsage;
      return 2;
    }
    const std::string& cmd = args[0];

    if (cmd == "print" && args.size() == 2) {
      out << format_report(load_report(args[1]));
      return 0;
    }

    if (cmd == "diff" && args.size() >= 3) {
      DiffThresholds t;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (!flag_value(args[i], "--max-wall-regress-pct", &t.max_wall_regress_pct) &&
            !flag_value(args[i], "--max-alloc-growth-pct", &t.max_alloc_growth_pct) &&
            !flag_value(args[i], "--max-rss-growth-pct", &t.max_rss_growth_pct) &&
            !flag_value(args[i], "--max-accuracy-drop", &t.max_accuracy_drop) &&
            !flag_value(args[i], "--max-pass-rate-drop", &t.max_pass_rate_drop) &&
            !flag_value(args[i], "--max-counter-drift-pct", &t.max_counter_drift_pct)) {
          err << "fp8q_report: unknown flag " << args[i] << "\n" << kUsage;
          return 2;
        }
      }
      const int breaches = diff_reports(load_report(args[1]), load_report(args[2]), t, out);
      if (breaches > 0) {
        out << "fp8q_report: diff FAILED (" << breaches << " threshold breach"
            << (breaches == 1 ? "" : "es") << ")\n";
        return 1;
      }
      out << "fp8q_report: diff ok\n";
      return 0;
    }

    if (cmd == "check-trace" && args.size() == 2) {
      const auto problems = validate_chrome_trace(read_file(args[1]));
      for (const auto& p : problems) out << "FAIL  " << p << "\n";
      if (!problems.empty()) {
        out << "fp8q_report: trace INVALID (" << problems.size() << " problems)\n";
        return 1;
      }
      out << "fp8q_report: trace ok\n";
      return 0;
    }

    if (cmd == "check-bench" && args.size() >= 2) {
      double min_dispatch_speedup = 0.0;  // off unless requested: service snapshots stay valid
      double min_jobs_per_sec = 0.0;  // off unless requested: kernel snapshots stay valid
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (!flag_value(args[i], "--min-dispatch-speedup", &min_dispatch_speedup) &&
            !flag_value(args[i], "--min-jobs-per-sec", &min_jobs_per_sec)) {
          err << "fp8q_report: unknown flag " << args[i] << "\n" << kUsage;
          return 2;
        }
      }
      const int breaches = check_bench(json::parse(read_file(args[1])), min_dispatch_speedup,
                                       min_jobs_per_sec, out);
      out << (breaches > 0 ? "fp8q_report: bench gate FAILED\n" : "fp8q_report: bench ok\n");
      return breaches > 0 ? 1 : 0;
    }

    if (cmd == "diff-bench" && args.size() >= 3) {
      double max_regress_pct = 20.0;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (!flag_value(args[i], "--max-regress-pct", &max_regress_pct)) {
          err << "fp8q_report: unknown flag " << args[i] << "\n" << kUsage;
          return 2;
        }
      }
      const int breaches = diff_bench(json::parse(read_file(args[1])),
                                      json::parse(read_file(args[2])), max_regress_pct, out);
      out << (breaches > 0 ? "fp8q_report: bench diff FAILED\n"
                           : "fp8q_report: bench diff ok\n");
      return breaches > 0 ? 1 : 0;
    }

    err << kUsage;
    return 2;
  } catch (const std::exception& e) {
    err << "fp8q_report: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace fp8q::report_cli
