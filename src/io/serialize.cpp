#include "io/serialize.h"

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "io/json.h"

namespace fp8q {

namespace {

/// CSV field escaping: quotes fields containing separators.
std::string escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void records_to_csv(const std::vector<AccuracyRecord>& records, std::ostream& out) {
  out << "workload,domain,config,fp32_accuracy,quant_accuracy,model_size_mb,"
         "relative_loss,passes\n";
  for (const auto& r : records) {
    out << escape(r.workload) << ',' << escape(r.domain) << ',' << escape(r.config) << ','
        << r.fp32_accuracy << ',' << r.quant_accuracy << ',' << r.model_size_mb << ','
        << r.relative_loss() << ',' << (r.passes() ? 1 : 0) << '\n';
  }
}

std::string records_to_csv(const std::vector<AccuracyRecord>& records) {
  std::ostringstream os;
  records_to_csv(records, os);
  return os.str();
}

namespace {

using json::Value;

CounterSnapshot parse_counters(const Value* v) {
  CounterSnapshot snap;
  if (v == nullptr || !v->is_object()) return snap;
  for (int f = 0; f < kObsFormatCount; ++f) {
    const Value* fmt = v->find(to_string(static_cast<ObsFormat>(f)));
    if (fmt == nullptr || !fmt->is_object()) continue;
    for (int e = 0; e < kObsEventCount; ++e) {
      snap.counts[f][e] = static_cast<std::uint64_t>(
          fmt->number_or(to_string(static_cast<ObsEvent>(e))));
    }
  }
  return snap;
}

/// Rebuilds a histogram from the sparse "buckets" list (the exact form);
/// the headline p50/p95/p99 fields are derived and recomputed on demand.
HistogramSnapshot parse_histogram(const Value& v) {
  HistogramSnapshot snap;
  if (const Value* buckets = v.find("buckets");
      buckets != nullptr && buckets->is_array()) {
    for (const Value& pair : buckets->array) {
      if (!pair.is_array() || pair.array.size() != 2) continue;
      const auto idx = static_cast<int>(pair.array[0].number);
      if (idx < 0 || idx >= kHistBucketCount) continue;
      const auto count = static_cast<std::uint64_t>(pair.array[1].number);
      snap.counts[idx] += count;
      snap.total += count;
    }
  }
  snap.min_value = v.number_or("min");
  snap.max_value = v.number_or("max");
  return snap;
}

}  // namespace

RunReport report_from_json(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const Value root = json::parse(text);
  if (!root.is_object()) {
    throw std::runtime_error("fp8q report: document is not an object");
  }
  const Value* version = root.find("fp8q_report_version");
  if (version == nullptr || version->kind != Value::Kind::kNumber) {
    throw std::runtime_error("fp8q report: missing fp8q_report_version");
  }
  // Older reports (v1..v2: no "memory"/"histograms"; v1..v3: no "isa")
  // parse fine with the missing fields defaulted, so accept every version
  // up to the current. Blocks later versions removed are ignored: v2..v4's
  // "weight_cache" (the quantized-weight cache, gone in v5) and v4..v5's
  // "kernel_paths" (packed-vs-FP32 kernel counts, gone in v6). Newer
  // reports are rejected outright: fields this reader does not know about
  // would be silently dropped, which matters when a resident fp8qd daemon
  // and the fp8q_report CLI are built at different versions.
  const int doc_version = static_cast<int>(version->number);
  if (doc_version > kReportVersion) {
    throw std::runtime_error(
        "fp8q report: version " + std::to_string(doc_version) +
        " is newer than this reader supports (max " + std::to_string(kReportVersion) +
        "); it was written by a newer fp8q build -- rebuild this tool or "
        "re-capture the report");
  }
  if (doc_version < 1) {
    throw std::runtime_error("fp8q report: unsupported version " +
                             std::to_string(doc_version));
  }

  RunReport report;
  report.tool = root.string_or("tool");
  report.num_threads = static_cast<int>(root.number_or("num_threads"));
  report.isa = root.string_or("isa");
  report.counters = parse_counters(root.find("counters"));
  if (const Value* mem = root.find("memory"); mem != nullptr && mem->is_object()) {
    report.memory.peak_rss_bytes =
        static_cast<std::uint64_t>(mem->number_or("peak_rss_bytes"));
    report.memory.alloc_bytes = static_cast<std::uint64_t>(mem->number_or("alloc_bytes"));
    report.memory.allocs = static_cast<std::uint64_t>(mem->number_or("allocs"));
  }
  if (const Value* hists = root.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [name, h] : hists->object) {
      if (!h.is_object()) continue;
      report.histograms.push_back({name, parse_histogram(h)});
    }
  }
  report.spans_dropped = static_cast<std::uint64_t>(root.number_or("spans_dropped"));

  if (const Value* stages = root.find("stages"); stages != nullptr && stages->is_array()) {
    for (const Value& s : stages->array) {
      if (!s.is_object()) continue;
      StageReport stage;
      stage.name = s.string_or("name");
      stage.wall_ms = s.number_or("wall_ms");
      stage.counters = parse_counters(s.find("counters"));
      stage.alloc_bytes = static_cast<std::uint64_t>(s.number_or("alloc_bytes"));
      stage.allocs = static_cast<std::uint64_t>(s.number_or("allocs"));
      report.stages.push_back(std::move(stage));
    }
  }

  if (const Value* records = root.find("records");
      records != nullptr && records->is_array()) {
    for (const Value& rec : records->array) {
      if (!rec.is_object()) continue;
      AccuracyRecord r;
      r.workload = rec.string_or("workload");
      r.domain = rec.string_or("domain");
      r.config = rec.string_or("config");
      r.fp32_accuracy = rec.number_or("fp32_accuracy");
      r.quant_accuracy = rec.number_or("quant_accuracy");
      r.model_size_mb = rec.number_or("model_size_mb");
      // relative_loss / passes are derived quantities; recomputed on read.
      report.records.push_back(std::move(r));
    }
  }

  if (const Value* spans = root.find("spans"); spans != nullptr && spans->is_array()) {
    for (const Value& s : spans->array) {
      if (!s.is_object()) continue;
      SpanRecord span;
      span.id = static_cast<std::int64_t>(s.number_or("id", -1.0));
      span.parent = static_cast<std::int64_t>(s.number_or("parent", -1.0));
      span.thread_id = static_cast<std::uint32_t>(s.number_or("thread"));
      span.name = s.string_or("name");
      span.start_ns = static_cast<std::uint64_t>(s.number_or("start_ns"));
      span.duration_ns = static_cast<std::uint64_t>(s.number_or("duration_ns"));
      report.spans.push_back(std::move(span));
    }
  }
  return report;
}

}  // namespace fp8q
