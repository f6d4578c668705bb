#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/thread_annotations.h"
#include "obs/domain.h"

namespace fp8q {

namespace {

/// Guards appends to the active report's stage list. The report pointer
/// itself is an atomic in the domain (lock-free null check on the hot
/// path); the *pointed-to* stages vector is only mutated under this mutex.
std::mutex g_report_mutex;

/// Shortest round-trippable decimal for a double (%.17g is always exact).
void write_double(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void write_counters(std::ostream& out, const CounterSnapshot& snap,
                    const char* indent) {
  out << "{";
  for (int f = 0; f < kObsFormatCount; ++f) {
    out << (f == 0 ? "\n" : ",\n") << indent << "  \""
        << to_string(static_cast<ObsFormat>(f)) << "\": {";
    for (int e = 0; e < kObsEventCount; ++e) {
      out << (e == 0 ? "" : ", ") << '"' << to_string(static_cast<ObsEvent>(e))
          << "\": " << snap.counts[f][e];
    }
    out << "}";
  }
  out << "\n" << indent << "}";
}

/// One histogram: headline stats (count/min/max/p50/p95/p99, derived --
/// recomputed on read) plus the sparse bucket list [[index, count], ...]
/// that round-trips the distribution exactly.
void write_histogram(std::ostream& out, const HistogramSnapshot& h) {
  out << "{\"count\": " << h.total << ", \"min\": ";
  write_double(out, h.any() ? h.min_value : 0.0);
  out << ", \"max\": ";
  write_double(out, h.any() ? h.max_value : 0.0);
  out << ", \"p50\": ";
  write_double(out, h.quantile(0.50));
  out << ", \"p95\": ";
  write_double(out, h.quantile(0.95));
  out << ", \"p99\": ";
  write_double(out, h.quantile(0.99));
  out << ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < kHistBucketCount; ++i) {
    if (h.counts[i] == 0) continue;
    out << (first ? "" : ", ") << "[" << i << ", " << h.counts[i] << "]";
    first = false;
  }
  out << "]}";
}

}  // namespace

std::string json_quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void RunReport::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"fp8q_report_version\": " << kReportVersion << ",\n";
  out << "  \"tool\": ";
  out << json_quoted(tool);
  out << ",\n  \"num_threads\": " << num_threads << ",\n";
  out << "  \"isa\": ";
  out << json_quoted(isa);
  out << ",\n";

  out << "  \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageReport& s = stages[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    out << json_quoted(s.name);
    out << ", \"wall_ms\": ";
    write_double(out, s.wall_ms);
    out << ", \"alloc_bytes\": " << s.alloc_bytes << ", \"allocs\": " << s.allocs
        << ", \"counters\": ";
    write_counters(out, s.counters, "    ");
    out << "}";
  }
  out << (stages.empty() ? "],\n" : "\n  ],\n");

  out << "  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AccuracyRecord& r = records[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"workload\": ";
    out << json_quoted(r.workload);
    out << ", \"domain\": ";
    out << json_quoted(r.domain);
    out << ", \"config\": ";
    out << json_quoted(r.config);
    out << ", \"fp32_accuracy\": ";
    write_double(out, r.fp32_accuracy);
    out << ", \"quant_accuracy\": ";
    write_double(out, r.quant_accuracy);
    out << ", \"model_size_mb\": ";
    write_double(out, r.model_size_mb);
    out << ", \"relative_loss\": ";
    write_double(out, r.relative_loss());
    out << ", \"passes\": " << (r.passes() ? "true" : "false") << "}";
  }
  out << (records.empty() ? "],\n" : "\n  ],\n");

  out << "  \"counters\": ";
  write_counters(out, counters, "  ");
  out << ",\n";

  out << "  \"memory\": {\"peak_rss_bytes\": " << memory.peak_rss_bytes
      << ", \"alloc_bytes\": " << memory.alloc_bytes << ", \"allocs\": " << memory.allocs
      << "},\n";

  out << "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    ";
    out << json_quoted(histograms[i].name);
    out << ": ";
    write_histogram(out, histograms[i].hist);
  }
  out << (histograms.empty() ? "},\n" : "\n  },\n");

  out << "  \"spans_dropped\": " << spans_dropped << ",\n";
  out << "  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread_id
        << ", \"name\": ";
    out << json_quoted(s.name);
    out << ", \"start_ns\": " << s.start_ns << ", \"duration_ns\": " << s.duration_ns
        << "}";
  }
  out << (spans.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

RunReport* active_report() { return current_counter_domain()->report(); }

void set_active_report(RunReport* report) { root_counter_domain().set_report(report); }

ScopedStage::ScopedStage(std::string_view name) : span_(name) {
  if (active_report() == nullptr) return;
  armed_ = true;
  name_ = name;
  start_ns_ = obs_now_ns();
  start_counters_ = counters_snapshot();
  start_allocs_ = alloc_counters_snapshot();
}

ScopedStage::~ScopedStage() {
  if (!armed_) return;
  const std::uint64_t wall_ns = obs_now_ns() - start_ns_;
  const AllocCounterSnapshot alloc_delta = alloc_counters_snapshot().since(start_allocs_);
  report_add_stage(name_, static_cast<double>(wall_ns) / 1e6,
                   counters_snapshot().since(start_counters_), alloc_delta.bytes,
                   alloc_delta.allocs);
}

void report_add_stage(std::string_view name, double wall_ms,
                      const CounterSnapshot& counters, std::uint64_t alloc_bytes,
                      std::uint64_t allocs) {
  std::lock_guard<std::mutex> lock(g_report_mutex);
  RunReport* report = active_report();
  if (report == nullptr) return;
  StageReport stage;
  stage.name = name;
  stage.wall_ms = wall_ms;
  stage.counters = counters;
  stage.alloc_bytes = alloc_bytes;
  stage.allocs = allocs;
  report->stages.push_back(std::move(stage));
}

const char* report_env_path() {
  const char* path = std::getenv("FP8Q_REPORT");
  return (path != nullptr && path[0] != '\0') ? path : nullptr;
}

bool write_report_if_requested(RunReport& report) {
  const char* path = report_env_path();
  if (path == nullptr) return false;
  report.counters = counters_snapshot();
  const AllocCounterSnapshot allocs = alloc_counters_snapshot();
  report.memory.peak_rss_bytes = peak_rss_bytes();
  report.memory.alloc_bytes = allocs.bytes;
  report.memory.allocs = allocs.allocs;
  report.histograms = all_histograms_snapshot();
  report.spans = trace_snapshot();
  report.spans_dropped = trace_dropped();
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("fp8q report: cannot open ") + path);
  report.write_json(out);
  if (!out) throw std::runtime_error(std::string("fp8q report: write failed: ") + path);
  return true;
}

}  // namespace fp8q
