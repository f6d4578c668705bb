#include "obs/trace_export.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "obs/report.h"

namespace fp8q {

namespace {

/// Trace-event timestamps are microseconds; keep nanosecond precision as
/// a decimal fraction (exact: value is n/1000 with n < 2^53 after the
/// epoch shift).
void write_us(std::ostream& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& spans) {
  // Shift timestamps so the trace starts at 0 (steady_clock's epoch is
  // arbitrary and its raw nanoseconds overflow the viewers' double math).
  std::uint64_t epoch_ns = 0;
  bool have_epoch = false;
  std::unordered_map<std::int64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (!have_epoch || s.start_ns < epoch_ns) {
      epoch_ns = s.start_ns;
      have_epoch = true;
    }
    by_id.emplace(s.id, &s);
  }

  out << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  for (const SpanRecord& s : spans) {
    sep();
    out << "    {\"name\": ";
    out << json_quoted(s.name);
    out << ", \"ph\": \"X\", \"ts\": ";
    write_us(out, s.start_ns - epoch_ns);
    out << ", \"dur\": ";
    write_us(out, s.duration_ns);
    out << ", \"pid\": 1, \"tid\": " << s.thread_id << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << "}}";

    // Flow arrow for parents that recorded on another thread. The start
    // ("s") binds to the innermost slice open at `ts` on the parent's
    // track, the finish ("f", bp:"e") to the child slice.
    const SpanRecord* parent =
        s.parent >= 0 ? (by_id.count(s.parent) != 0 ? by_id.at(s.parent) : nullptr) : nullptr;
    if (parent != nullptr && parent->thread_id != s.thread_id) {
      sep();
      out << "    {\"name\": \"fanout\", \"cat\": \"fanout\", \"ph\": \"s\", \"id\": " << s.id
          << ", \"ts\": ";
      write_us(out, s.start_ns - epoch_ns);
      out << ", \"pid\": 1, \"tid\": " << parent->thread_id << "}";
      sep();
      out << "    {\"name\": \"fanout\", \"cat\": \"fanout\", \"ph\": \"f\", \"bp\": \"e\", "
             "\"id\": "
          << s.id << ", \"ts\": ";
      write_us(out, s.start_ns - epoch_ns);
      out << ", \"pid\": 1, \"tid\": " << s.thread_id << "}";
    }
  }
  out << (first ? "]\n}\n" : "\n  ]\n}\n");
}

const char* trace_json_env_path() {
  const char* path = std::getenv("FP8Q_TRACE_JSON");
  return (path != nullptr && path[0] != '\0') ? path : nullptr;
}

bool write_chrome_trace_if_requested() {
  const char* path = trace_json_env_path();
  if (path == nullptr) return false;
  const std::vector<SpanRecord> spans = trace_snapshot();
  std::ofstream out(path);
  if (!out) throw std::runtime_error(std::string("fp8q trace: cannot open ") + path);
  write_chrome_trace(out, spans);
  if (!out) throw std::runtime_error(std::string("fp8q trace: write failed: ") + path);
  return true;
}

}  // namespace fp8q
