// Concurrent-scheduler tests for fp8qd (service/server.h): the
// multi-worker executor pool must be invisible in every per-job
// artifact. The central suite boots the same daemon at 1, 2 and 4
// executor workers, submits one mixed-priority job set each time, and
// asserts that every job's report -- accuracy records, quantization-event
// counters, per-stage counter deltas -- is identical to a cold one-shot
// run of the same spec (docs/THREADING.md, "Scoped observation domains"),
// including an eval served from the daemon's plan cache. Also covers the
// deadline-at-observation path and the scheduler stats fields.
//
// Tests live outside src/, so std::thread and raw sleeps are fair game
// here (the linted library keeps to core/parallel and obs_now_ns).
#include "service/server.h"

#include <unistd.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "io/json.h"
#include "io/serialize.h"
#include "obs/counters.h"
#include "service/net.h"
#include "service/protocol.h"
#include "workloads/registry.h"

namespace fp8q::service {
namespace {

std::string temp_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/fp8qd_sched_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A Server with a configurable worker count plus its run()-loop thread.
class SchedulerFixture {
 public:
  explicit SchedulerFixture(int workers, std::size_t queue_max = 16) {
    ServerOptions options;
    options.unix_path = temp_socket_path();
    options.queue_max = queue_max;
    options.workers = workers;
    server_ = std::make_unique<Server>(options);
    io_thread_ = std::thread([this] { server_->run(); });
  }

  ~SchedulerFixture() { stop(); }

  void stop() {
    if (io_thread_.joinable()) {
      server_->request_shutdown();
      io_thread_.join();
    }
  }

  Server& server() { return *server_; }
  [[nodiscard]] Connection connect() const { return connect_unix(server_->unix_path()); }

 private:
  std::unique_ptr<Server> server_;
  std::thread io_thread_;
};

json::Value roundtrip(Connection& conn, const std::string& payload) {
  conn.send_frame(payload);
  const auto reply = conn.recv_frame();
  EXPECT_TRUE(reply.has_value()) << "connection closed on: " << payload;
  return json::parse(reply.value_or("null"));
}

/// One job of the fixed mixed-priority set.
struct SpecRow {
  const char* kind;
  const char* workload;
  const char* format;
  int priority;
};

/// Mixed kinds, workloads, formats and priorities. The two dlrm-ish evals
/// share a key, so the second runs on a cached or in-flight plan.
constexpr SpecRow kJobSet[] = {
    {"eval", "dlrm-ish", "E4M3", 0},
    {"quantize", "dlrm-ish", "E5M2", 5},
    {"eval", "nlp/distil-mlp-0", "E5M2", -2},
    {"quantize", "nlp/distil-mlp-0", "E3M4", 3},
    {"eval", "resnet50-ish", "E3M4", 1},
    {"quantize", "resnet50-ish", "E4M3", 0},
    {"eval", "dlrm-ish", "E5M2", 2},
};

std::string submit_payload(const SpecRow& row) {
  std::string payload = "{\"cmd\":\"submit\",\"kind\":\"";
  payload += row.kind;
  payload += "\",\"workload\":\"";
  payload += row.workload;
  payload += "\",\"format\":\"";
  payload += row.format;
  payload += "\",\"quick\":true,\"priority\":";
  payload += std::to_string(row.priority);
  payload += "}";
  return payload;
}

JobSpec spec_of(const SpecRow& row) {
  JobSpec spec;
  spec.kind = job_kind_from_string(row.kind);
  spec.workload = row.workload;
  spec.format = row.format;
  spec.quick = true;
  spec.priority = row.priority;
  return spec;
}

/// Slices the raw report object out of a result frame so report_from_json
/// sees exactly the bytes the daemon serialized.
RunReport report_from_result_frame(const std::string& frame) {
  const auto pos = frame.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << frame;
  std::string report_json = frame.substr(pos + 9);
  EXPECT_TRUE(report_json.size() > 1 && report_json.back() == '}');
  report_json.pop_back();  // the result response's closing brace
  std::istringstream in(report_json);
  return report_from_json(in);
}

/// Round-trips a RunReport through its own JSON so double formatting
/// matches the served (serialized) reports exactly.
RunReport through_json(const RunReport& report) {
  std::istringstream in(report.to_json());
  return report_from_json(in);
}

/// The scheduler-invisibility fingerprint: everything about a job's
/// report that the observation-domain contract pins down. Wall times,
/// num_threads, RSS and allocation figures are environmental and stay
/// out; counter deltas, records and per-stage
/// counter deltas must be byte-identical at any worker count.
void expect_scheduler_invisible(const RunReport& served, const RunReport& baseline,
                                const std::string& label) {
  EXPECT_EQ(served.tool, baseline.tool) << label;
  ASSERT_EQ(served.records.size(), baseline.records.size()) << label;
  for (std::size_t i = 0; i < served.records.size(); ++i) {
    EXPECT_EQ(served.records[i].workload, baseline.records[i].workload) << label;
    EXPECT_EQ(served.records[i].config, baseline.records[i].config) << label;
    EXPECT_EQ(served.records[i].fp32_accuracy, baseline.records[i].fp32_accuracy) << label;
    EXPECT_EQ(served.records[i].quant_accuracy, baseline.records[i].quant_accuracy)
        << label;
    EXPECT_EQ(served.records[i].model_size_mb, baseline.records[i].model_size_mb) << label;
  }
  EXPECT_TRUE(served.counters == baseline.counters) << label << ": counter delta differs";
  ASSERT_EQ(served.stages.size(), baseline.stages.size()) << label;
  for (std::size_t i = 0; i < served.stages.size(); ++i) {
    EXPECT_EQ(served.stages[i].name, baseline.stages[i].name) << label;
    EXPECT_TRUE(served.stages[i].counters == baseline.stages[i].counters)
        << label << ": stage '" << served.stages[i].name << "' counter delta differs";
  }
}

/// Submits the whole set on one connection (ids are 1..N in submit
/// order), then collects each report. Jobs run concurrently while the
/// submits and waits proceed.
std::vector<RunReport> run_set_on_server(SchedulerFixture& fixture) {
  Connection conn = fixture.connect();
  for (const SpecRow& row : kJobSet) {
    const json::Value submitted = roundtrip(conn, submit_payload(row));
    const json::Value* ok = submitted.find("ok");
    EXPECT_TRUE(ok != nullptr && ok->boolean) << "submit rejected";
  }
  std::vector<RunReport> reports;
  for (std::size_t id = 1; id <= std::size(kJobSet); ++id) {
    conn.send_frame("{\"cmd\":\"result\",\"job_id\":" + std::to_string(id) +
                    ",\"wait\":true}");
    const auto reply = conn.recv_frame();
    EXPECT_TRUE(reply.has_value());
    const json::Value parsed = json::parse(reply.value_or("null"));
    EXPECT_EQ(parsed.string_or("state"), "done") << parsed.string_or("error");
    reports.push_back(report_from_result_frame(reply.value_or("")));
  }
  return reports;
}

TEST(Scheduler, PerJobReportsBitIdenticalAcrossWorkerCounts) {
  set_counters_enabled(true);
  // Pin the runtime wide enough that the scheduling varies across the
  // worker counts below: with every executor's stream open, the 1, 2 and
  // 4 workers leave 3, 2 and 0 pool workers taking units.
  set_num_threads(4);

  // Baseline: cold one-shot runs of every spec, each with its own cache.
  const std::vector<Workload> suite = build_suite();
  std::vector<RunReport> baseline;
  for (const SpecRow& row : kJobSet) {
    PlanCache cold;
    baseline.push_back(through_json(run_job_oneshot(suite, spec_of(row), cold)));
  }

  for (const int workers : {1, 2, 4}) {
    SchedulerFixture fixture(workers);
    const std::vector<RunReport> served = run_set_on_server(fixture);
    fixture.stop();
    ASSERT_EQ(served.size(), baseline.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      expect_scheduler_invisible(
          served[i], baseline[i],
          std::string("workers=") + std::to_string(workers) + " job#" +
              std::to_string(i + 1) + " (" + kJobSet[i].kind + " " + kJobSet[i].workload +
              " " + kJobSet[i].format + ")");
    }
  }
  set_num_threads(0);
}

TEST(Scheduler, OverdueQueuedJobsExpireWhenObservedNotOnlyAtDequeue) {
  set_counters_enabled(true);
  SchedulerFixture fixture(/*workers=*/1);
  Connection conn = fixture.connect();

  // Occupy the single worker with a full-size (non-quick) job, then
  // queue a job whose deadline has already lapsed. The worker is busy
  // for far longer than a round trip, so without expiry-at-observation
  // the status request would report "queued" -- the regression this
  // test pins is that OBSERVING the overdue job expires it immediately.
  const json::Value blocker = roundtrip(
      conn,
      "{\"cmd\":\"submit\",\"kind\":\"eval\",\"workload\":\"resnet50-ish\","
      "\"format\":\"E4M3\"}");
  ASSERT_TRUE(blocker.find("ok") != nullptr && blocker.find("ok")->boolean);

  const json::Value doomed = roundtrip(
      conn,
      "{\"cmd\":\"submit\",\"kind\":\"eval\",\"workload\":\"dlrm-ish\","
      "\"format\":\"E4M3\",\"quick\":true,\"deadline_ms\":0.000001}");
  ASSERT_TRUE(doomed.find("ok") != nullptr && doomed.find("ok")->boolean);
  const auto doomed_id = static_cast<std::uint64_t>(doomed.number_or("job_id"));

  // The very first status observation must already see the terminal
  // expired state, while the blocker still holds the only worker.
  const json::Value status = roundtrip(
      conn, "{\"cmd\":\"status\",\"job_id\":" + std::to_string(doomed_id) + "}");
  EXPECT_EQ(status.string_or("state"), "expired");

  const json::Value result = roundtrip(
      conn,
      "{\"cmd\":\"result\",\"job_id\":" + std::to_string(doomed_id) + ",\"wait\":true}");
  EXPECT_EQ(result.string_or("state"), "expired");
  EXPECT_NE(result.string_or("error").find("deadline"), std::string::npos);

  // The blocker is unaffected and the expiry is tallied.
  const json::Value blocker_result = roundtrip(
      conn, "{\"cmd\":\"result\",\"job_id\":" +
                std::to_string(static_cast<std::uint64_t>(blocker.number_or("job_id"))) +
                ",\"wait\":true}");
  EXPECT_EQ(blocker_result.string_or("state"), "done")
      << blocker_result.string_or("error");
  const json::Value stats = roundtrip(conn, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(static_cast<int>(stats.find("jobs")->number_or("expired")), 1);
}

TEST(Scheduler, StatsExposeWorkersActiveJobsAndPerWorkerUtilization) {
  set_counters_enabled(true);
  SchedulerFixture fixture(/*workers=*/2);
  Connection conn = fixture.connect();

  const json::Value before = roundtrip(conn, "{\"cmd\":\"stats\"}");
  const json::Value* scheduler = before.find("scheduler");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(static_cast<int>(scheduler->number_or("workers")), 2);
  EXPECT_EQ(static_cast<int>(scheduler->number_or("active_jobs")), 0);

  // Run a few jobs, then re-check: the per-worker rows must account for
  // every completed job between them, with sane busy fractions.
  for (int i = 0; i < 4; ++i) {
    const json::Value result = roundtrip(
        conn,
        "{\"cmd\":\"submit\",\"kind\":\"eval\",\"workload\":\"nlp/distil-mlp-0\","
        "\"format\":\"E4M3\",\"quick\":true}");
    ASSERT_TRUE(result.find("ok") != nullptr && result.find("ok")->boolean);
  }
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const json::Value result = roundtrip(
        conn, "{\"cmd\":\"result\",\"job_id\":" + std::to_string(id) + ",\"wait\":true}");
    EXPECT_EQ(result.string_or("state"), "done") << result.string_or("error");
  }

  const json::Value after = roundtrip(conn, "{\"cmd\":\"stats\"}");
  const json::Value* sched_after = after.find("scheduler");
  ASSERT_NE(sched_after, nullptr);
  const json::Value* per_worker = sched_after->find("per_worker");
  ASSERT_NE(per_worker, nullptr);
  ASSERT_TRUE(per_worker->is_array());
  ASSERT_EQ(per_worker->array.size(), 2u);
  std::uint64_t total_jobs = 0;
  for (const json::Value& row : per_worker->array) {
    total_jobs += static_cast<std::uint64_t>(row.number_or("jobs"));
    EXPECT_GE(row.number_or("busy_fraction"), 0.0);
    EXPECT_LE(row.number_or("busy_fraction"), 1.0);
  }
  EXPECT_EQ(total_jobs, 4u);

  // The in-process snapshot carries the same scheduler view.
  const ServiceStats snap = fixture.server().stats_snapshot();
  EXPECT_EQ(snap.workers, 2);
  EXPECT_EQ(snap.active_jobs, 0u);
  ASSERT_EQ(snap.per_worker.size(), 2u);
  std::uint64_t snap_jobs = 0;
  for (const WorkerStats& w : snap.per_worker) snap_jobs += w.jobs;
  EXPECT_EQ(snap_jobs, 4u);
}

TEST(Scheduler, DrainingShutdownJoinsEveryWorker) {
  set_counters_enabled(true);
  SchedulerFixture fixture(/*workers=*/4);
  Connection conn = fixture.connect();
  // Queue more jobs than workers, then drain: every queued job must
  // still complete (the drain barrier waits for ALL executors).
  for (int i = 0; i < 6; ++i) {
    const json::Value submitted = roundtrip(
        conn,
        "{\"cmd\":\"submit\",\"kind\":\"eval\",\"workload\":\"nlp/distil-mlp-0\","
        "\"format\":\"E4M3\",\"quick\":true}");
    ASSERT_TRUE(submitted.find("ok") != nullptr && submitted.find("ok")->boolean);
  }
  const json::Value bye = roundtrip(conn, "{\"cmd\":\"shutdown\",\"drain\":true}");
  EXPECT_EQ(bye.string_or("state"), "draining");
  fixture.stop();
  const ServiceStats snap = fixture.server().stats_snapshot();
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_EQ(snap.active_jobs, 0u);
}

}  // namespace
}  // namespace fp8q::service
