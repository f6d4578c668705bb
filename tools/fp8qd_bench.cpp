// fp8qd_bench: load generator for the fp8qd service (docs/SERVICE.md).
//
//   fp8qd_bench --socket=PATH [--connections=N] [--jobs=M] [--workload=W]
//               [--mix=eval,quantize] [--format=F] [--quick]
//               [--out=BENCH_service.json] [--append] [--shutdown]
//
// Drives N concurrent connections against a running daemon: each
// connection loops submit -> result(wait) over a shared job counter, so
// the daemon sees a sustained closed-loop load at concurrency N. Measures
// sustained jobs/sec and the p50/p95/p99 tail of the per-job round-trip
// latency (submit sent -> result received) plus the per-job queue-full
// retry distribution (merged across connections like the latency
// histogram, not just a total), embeds the server's own stats endpoint
// snapshot, and writes a BENCH_service.json that `fp8q_report check-bench
// --min-jobs-per-sec=J` gates in CI.
//
// Worker-count scaling rows: every run appends one row to the snapshot's
// "runs" array tagged with the daemon's executor worker count (read off
// the stats endpoint's scheduler block), so a script that restarts the
// daemon at FP8QD_WORKERS=1/2/4 and re-runs the bench with --append gets
// the whole jobs/sec scaling curve in ONE BENCH_service.json.
//
// Lint exemptions (docs/STATIC_ANALYSIS.md): the load generator is a
// standalone client, so it owns its own threads instead of depending on
// the library pool, and it is inherently wall-clock paced.
// fp8q-lint: allow-file(raw-thread) one client thread per connection is the tool's whole job
// fp8q-lint: allow-file(raw-clock) <chrono> only feeds the queue_full backoff sleep; measurement uses obs_now_ns
// fp8q-lint: allow-file(determinism) closed-loop pacing against a live daemon cannot be deterministic
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "obs/histogram.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "service/net.h"
#include "service/protocol.h"

using namespace fp8q;

namespace {

struct BenchOptions {
  std::string socket_path;
  int tcp_port = -1;
  int connections = 4;
  int jobs = 16;
  std::string workload = "dlrm-ish";
  std::string mix = "eval,quantize";
  std::string format = "E4M3";
  bool quick = false;
  bool shutdown = false;
  bool append = false;
  std::string out_path = "BENCH_service.json";
  /// When set, one canonical job (first mix kind, same workload/format)
  /// runs after the timed load and its report JSON lands here -- the
  /// artifact `fp8q_report diff --max-counter-drift-pct=0` compares
  /// across daemon worker counts.
  std::string report_out_path;
};

struct WorkerResult {
  LocalHistogram latency_ns;
  /// Queue-full retries PER JOB -- a distribution merged across the
  /// connections exactly like latency_ns, so admission-control pressure
  /// shows up as quantiles instead of vanishing into one total.
  LocalHistogram retries_per_job;
  int completed = 0;
  int failed = 0;
  int queue_full_retries = 0;
};

service::Connection connect_to_daemon(const BenchOptions& opts) {
  if (!opts.socket_path.empty()) return service::connect_unix(opts.socket_path);
  return service::connect_tcp_loopback(opts.tcp_port);
}

std::vector<std::string> split_mix(const std::string& mix) {
  std::vector<std::string> kinds;
  std::string current;
  for (const char c : mix + ",") {
    if (c == ',') {
      if (!current.empty()) kinds.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  return kinds;
}

std::string submit_payload(const BenchOptions& opts, const std::string& kind) {
  std::string payload = "{\"cmd\":\"submit\",\"kind\":";
  payload += json_quoted(kind);
  payload += ",\"workload\":";
  payload += json_quoted(opts.workload);
  payload += ",\"format\":";
  payload += json_quoted(opts.format);
  payload += opts.quick ? ",\"quick\":true}" : "}";
  return payload;
}

/// One closed-loop worker: submit, wait for the result, repeat until the
/// shared job counter is exhausted. queue_full rejections back off and
/// retry (the daemon's admission control at work).
void worker(const BenchOptions& opts, const std::vector<std::string>& kinds,
            std::atomic<int>& next_job, WorkerResult& result) {
  service::Connection conn = connect_to_daemon(opts);
  for (;;) {
    const int index = next_job.fetch_add(1, std::memory_order_relaxed);
    if (index >= opts.jobs) return;
    const std::string& kind = kinds[static_cast<std::size_t>(index) % kinds.size()];

    const std::uint64_t t0 = obs_now_ns();
    std::uint64_t job_id = 0;
    int job_retries = 0;
    for (;;) {
      conn.send_frame(submit_payload(opts, kind));
      const auto reply = conn.recv_frame();
      if (!reply) throw std::runtime_error("daemon closed the connection on submit");
      const json::Value v = json::parse(*reply);
      const json::Value* ok = v.find("ok");
      if (ok != nullptr && ok->boolean) {
        job_id = static_cast<std::uint64_t>(v.number_or("job_id"));
        break;
      }
      if (v.string_or("code") == "queue_full") {
        ++job_retries;
        ++result.queue_full_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      throw std::runtime_error("submit rejected: " + *reply);
    }
    result.retries_per_job.record(static_cast<double>(job_retries));

    std::string payload = "{\"cmd\":\"result\",\"job_id\":";
    payload += std::to_string(job_id);
    payload += ",\"wait\":true}";
    conn.send_frame(payload);
    const auto reply = conn.recv_frame();
    if (!reply) throw std::runtime_error("daemon closed the connection on result");
    const json::Value v = json::parse(*reply);
    const std::uint64_t t1 = obs_now_ns();
    if (v.string_or("state") == "done") {
      ++result.completed;
      result.latency_ns.record(static_cast<double>(t1 - t0));
    } else {
      ++result.failed;
      std::fprintf(stderr, "[fp8qd_bench] job %llu ended %s: %s\n",
                   static_cast<unsigned long long>(job_id), v.string_or("state").c_str(),
                   v.string_or("error").c_str());
    }
  }
}

/// Re-serializes one quantile block parsed back out of a prior snapshot.
void append_parsed_quantiles(std::string& out, const json::Value* q) {
  out += "{\"count\":";
  out += std::to_string(
      q != nullptr ? static_cast<std::uint64_t>(q->number_or("count")) : 0);
  for (const char* key : {"p50", "p95", "p99", "max"}) {
    out += ",\"";
    out += key;
    out += "\":" + std::to_string(q != nullptr ? q->number_or(key) : 0.0);
  }
  out += "}";
}

/// Re-serializes one "runs" row from a prior --append snapshot. The row
/// schema is fixed, so a field-by-field round-trip is exact enough for
/// the scaling-curve comparison the rows exist for.
void append_parsed_run_row(std::string& out, const json::Value& row) {
  out += "{\"workers\":";
  out += std::to_string(static_cast<int>(row.number_or("workers", 1.0)));
  out += ",\"connections\":" + std::to_string(static_cast<int>(row.number_or("connections")));
  out += ",\"jobs\":" + std::to_string(static_cast<int>(row.number_or("jobs")));
  out += ",\"completed\":" + std::to_string(static_cast<int>(row.number_or("completed")));
  out += ",\"failed\":" + std::to_string(static_cast<int>(row.number_or("failed")));
  out += ",\"queue_full_retries\":" +
         std::to_string(static_cast<int>(row.number_or("queue_full_retries")));
  out += ",\"wall_s\":" + std::to_string(row.number_or("wall_s"));
  out += ",\"jobs_per_sec\":" + std::to_string(row.number_or("jobs_per_sec"));
  out += ",\"latency_ms\":";
  append_parsed_quantiles(out, row.find("latency_ms"));
  out += ",\"retries_per_job\":";
  append_parsed_quantiles(out, row.find("retries_per_job"));
  out += "}";
}

/// Prior rows from an existing snapshot when --append is on; a missing or
/// unparseable file just starts a fresh curve.
std::vector<std::string> load_prior_runs(const BenchOptions& opts) {
  std::vector<std::string> rows;
  if (!opts.append) return rows;
  std::ifstream in(opts.out_path);
  if (!in) return rows;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    const json::Value prior = json::parse(text);
    if (const json::Value* runs = prior.find("runs");
        runs != nullptr && runs->is_array()) {
      for (const json::Value& row : runs->array) {
        if (!row.is_object()) continue;
        std::string serialized;
        append_parsed_run_row(serialized, row);
        rows.push_back(std::move(serialized));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[fp8qd_bench] --append: ignoring unreadable %s (%s)\n",
                 opts.out_path.c_str(), e.what());
    rows.clear();
  }
  return rows;
}

/// Submits one canonical job over `conn`, waits for its result, and
/// returns the embedded report JSON object. The result frame ends
/// ...,"report":{...}} with nothing after the report, so the object is
/// the substring from the key to the frame's closing brace.
std::string fetch_canonical_report(service::Connection& conn, const BenchOptions& opts,
                                   const std::string& kind) {
  conn.send_frame(submit_payload(opts, kind));
  const auto submitted = conn.recv_frame();
  if (!submitted) throw std::runtime_error("daemon closed the connection on submit");
  const json::Value v = json::parse(*submitted);
  const json::Value* ok = v.find("ok");
  if (ok == nullptr || !ok->boolean) {
    throw std::runtime_error("--report-out submit rejected: " + *submitted);
  }
  std::string payload = "{\"cmd\":\"result\",\"job_id\":";
  payload += std::to_string(static_cast<std::uint64_t>(v.number_or("job_id")));
  payload += ",\"wait\":true}";
  conn.send_frame(payload);
  const auto reply = conn.recv_frame();
  if (!reply) throw std::runtime_error("daemon closed the connection on result");
  const json::Value result = json::parse(*reply);
  if (result.string_or("state") != "done") {
    throw std::runtime_error("--report-out job ended " + result.string_or("state") + ": " +
                             result.string_or("error"));
  }
  const std::string key = "\"report\":";
  const std::size_t at = reply->find(key);
  if (at == std::string::npos || reply->back() != '}') {
    throw std::runtime_error("--report-out result carries no report: " + *reply);
  }
  return reply->substr(at + key.size(), reply->size() - 1 - (at + key.size()));
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fp8qd_bench --socket=PATH | --tcp-port=N\n"
      "  [--connections=N]   concurrent client connections (default 4)\n"
      "  [--jobs=M]          total jobs across all connections (default 16)\n"
      "  [--workload=W]      suite workload name (default dlrm-ish)\n"
      "  [--mix=K1,K2]       job kinds to cycle through (default eval,quantize)\n"
      "  [--format=F]        E5M2|E4M3|E3M4|INT8|mixed (default E4M3)\n"
      "  [--quick]           smoke-sized evaluation protocol per job\n"
      "  [--out=PATH]        snapshot path (default BENCH_service.json)\n"
      "  [--append]          keep prior runs' rows in the snapshot's \"runs\"\n"
      "                      array (one scaling curve across daemon restarts)\n"
      "  [--report-out=PATH] run one canonical job after the load and save its\n"
      "                      report JSON (for fp8q_report diff across worker\n"
      "                      counts)\n"
      "  [--shutdown]        ask the daemon to drain and exit afterwards\n");
  return 2;
}

bool flag_value(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  if (const char* sock = std::getenv("FP8QD_SOCKET"); sock != nullptr && sock[0] != '\0') {
    opts.socket_path = sock;
  }
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (flag_value(argv[i], "--socket", &value)) {
      opts.socket_path = value;
    } else if (flag_value(argv[i], "--tcp-port", &value)) {
      opts.tcp_port = std::atoi(value);
      opts.socket_path.clear();
    } else if (flag_value(argv[i], "--connections", &value)) {
      opts.connections = std::atoi(value);
    } else if (flag_value(argv[i], "--jobs", &value)) {
      opts.jobs = std::atoi(value);
    } else if (flag_value(argv[i], "--workload", &value)) {
      opts.workload = value;
    } else if (flag_value(argv[i], "--mix", &value)) {
      opts.mix = value;
    } else if (flag_value(argv[i], "--format", &value)) {
      opts.format = value;
    } else if (flag_value(argv[i], "--out", &value)) {
      opts.out_path = value;
    } else if (flag_value(argv[i], "--report-out", &value)) {
      opts.report_out_path = value;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--append") == 0) {
      opts.append = true;
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      opts.shutdown = true;
    } else {
      return usage();
    }
  }
  if ((opts.socket_path.empty() && opts.tcp_port < 0) || opts.connections < 1 ||
      opts.jobs < 1) {
    return usage();
  }
  const std::vector<std::string> kinds = split_mix(opts.mix);
  if (kinds.empty()) return usage();

  try {
    std::atomic<int> next_job{0};
    std::vector<WorkerResult> results(static_cast<std::size_t>(opts.connections));
    std::vector<std::thread> threads;
    threads.reserve(results.size());

    const std::uint64_t bench_start = obs_now_ns();
    for (std::size_t i = 0; i < results.size(); ++i) {
      threads.emplace_back(
          [&, i] { worker(opts, kinds, next_job, results[i]); });
    }
    for (auto& t : threads) t.join();
    const double wall_s = static_cast<double>(obs_now_ns() - bench_start) / 1e9;

    HistogramSnapshot latency;
    HistogramSnapshot retries_per_job;
    int completed = 0, failed = 0, retries = 0;
    for (const WorkerResult& r : results) {
      latency.merge_from(r.latency_ns.snap);
      retries_per_job.merge_from(r.retries_per_job.snap);
      completed += r.completed;
      failed += r.failed;
      retries += r.queue_full_retries;
    }
    const double jobs_per_sec = wall_s > 0.0 ? completed / wall_s : 0.0;

    // Fetch the daemon's own stats snapshot over a fresh control
    // connection, then optionally ask it to drain. The scheduler block
    // tags this run's row with the daemon's worker count.
    std::string server_stats = "{}";
    {
      service::Connection control = connect_to_daemon(opts);
      if (!opts.report_out_path.empty()) {
        const std::string report = fetch_canonical_report(control, opts, kinds[0]);
        std::ofstream report_file(opts.report_out_path);
        if (!report_file) {
          throw std::runtime_error("cannot write " + opts.report_out_path);
        }
        report_file << report << "\n";
        report_file.close();
        std::printf("canonical %s report written to %s\n", kinds[0].c_str(),
                    opts.report_out_path.c_str());
      }
      control.send_frame("{\"cmd\":\"stats\"}");
      if (const auto reply = control.recv_frame()) server_stats = *reply;
      if (opts.shutdown) {
        control.send_frame("{\"cmd\":\"shutdown\",\"drain\":true}");
        (void)control.recv_frame();
      }
    }
    int server_workers = 1;
    try {
      const json::Value stats = json::parse(server_stats);
      if (const json::Value* scheduler = stats.find("scheduler")) {
        server_workers = static_cast<int>(scheduler->number_or("workers", 1.0));
      }
    } catch (const std::exception&) {
      // stats endpoint unreadable: the row keeps workers=1
    }

    std::string row = "{\"workers\":";
    row += std::to_string(server_workers);
    row += ",\"connections\":" + std::to_string(opts.connections);
    row += ",\"jobs\":" + std::to_string(opts.jobs);
    row += ",\"completed\":" + std::to_string(completed);
    row += ",\"failed\":" + std::to_string(failed);
    row += ",\"queue_full_retries\":" + std::to_string(retries);
    row += ",\"wall_s\":" + std::to_string(wall_s);
    row += ",\"jobs_per_sec\":" + std::to_string(jobs_per_sec);
    row += ",\"latency_ms\":";
    service::append_quantiles(row, latency, 1.0 / 1e6);
    row += ",\"retries_per_job\":";
    service::append_quantiles(row, retries_per_job, 1.0);
    row += "}";

    std::vector<std::string> runs = load_prior_runs(opts);
    runs.push_back(row);

    std::string json = "{\n  \"service\": {\n    \"workers\": ";
    json += std::to_string(server_workers);
    json += ",\n    \"connections\": " + std::to_string(opts.connections);
    json += ",\n    \"jobs\": " + std::to_string(opts.jobs);
    json += ",\n    \"completed\": " + std::to_string(completed);
    json += ",\n    \"failed\": " + std::to_string(failed);
    json += ",\n    \"queue_full_retries\": " + std::to_string(retries);
    json += ",\n    \"workload\": ";
    json += json_quoted(opts.workload);
    json += ",\n    \"mix\": ";
    json += json_quoted(opts.mix);
    json += ",\n    \"format\": ";
    json += json_quoted(opts.format);
    json += ",\n    \"quick\": ";
    json += opts.quick ? "true" : "false";
    json += ",\n    \"wall_s\": " + std::to_string(wall_s);
    json += ",\n    \"jobs_per_sec\": " + std::to_string(jobs_per_sec);
    json += ",\n    \"latency_ms\": ";
    service::append_quantiles(json, latency, 1.0 / 1e6);
    json += ",\n    \"retries_per_job\": ";
    service::append_quantiles(json, retries_per_job, 1.0);
    json += "\n  },\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      json += "    " + runs[i];
      json += i + 1 < runs.size() ? ",\n" : "\n";
    }
    json += "  ],\n  \"server_stats\": " + server_stats + "\n}\n";

    std::ofstream out(opts.out_path);
    if (!out) throw std::runtime_error("cannot write " + opts.out_path);
    out << json;
    out.close();

    std::printf("workers: %d  connections: %d  jobs: %d (%d completed, %d failed, "
                "%d retries)\n",
                server_workers, opts.connections, opts.jobs, completed, failed, retries);
    std::printf("wall: %.2f s  sustained: %.2f jobs/sec\n", wall_s, jobs_per_sec);
    std::printf("latency: p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms\n",
                latency.quantile(0.50) / 1e6, latency.quantile(0.95) / 1e6,
                latency.quantile(0.99) / 1e6,
                (latency.total != 0 ? latency.max_value : 0.0) / 1e6);
    if (retries > 0) {
      std::printf("queue-full retries/job: p50 %.0f  p95 %.0f  max %.0f\n",
                  retries_per_job.quantile(0.50), retries_per_job.quantile(0.95),
                  retries_per_job.max_value);
    }
    std::printf("snapshot written to %s (%zu run row%s)\n", opts.out_path.c_str(),
                runs.size(), runs.size() == 1 ? "" : "s");
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8qd_bench: %s\n", e.what());
    return 1;
  }
}
