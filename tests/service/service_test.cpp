// End-to-end tests for the fp8qd service (service/server.h): a real
// Server on a temp Unix socket, driven by real client connections over
// the framed protocol. The central property is the bit-identity
// contract from docs/SERVICE.md -- a report served for a job must carry
// the same accuracy records and the same quantization-event counter
// delta as a one-shot run of the same spec -- plus the operational
// paths: admission control, cancel, deadlines, malformed input, stats,
// the bounded job table, and the draining shutdown.
//
// Tests live outside src/, so std::thread and raw sleeps are fair game
// here (the linted library keeps to core/parallel and obs_now_ns).
#include "service/server.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/json.h"
#include "io/serialize.h"
#include "obs/counters.h"
#include "service/net.h"
#include "service/protocol.h"
#include "workloads/registry.h"

namespace fp8q::service {
namespace {

/// A unique, short socket path (sun_path caps at ~108 bytes, so the
/// build tree's deep paths are unusable).
std::string temp_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/fp8qd_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A Server plus its run()-loop thread; joins and cleans up on scope exit.
class ServerFixture {
 public:
  explicit ServerFixture(std::size_t queue_max = 16, int tcp_port = -1) {
    ServerOptions options;
    options.unix_path = temp_socket_path();
    options.tcp_port = tcp_port;
    options.queue_max = queue_max;
    server_ = std::make_unique<Server>(options);
    io_thread_ = std::thread([this] { server_->run(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    if (io_thread_.joinable()) {
      server_->request_shutdown();
      io_thread_.join();
    }
  }

  Server& server() { return *server_; }
  [[nodiscard]] Connection connect() const {
    return connect_unix(server_->unix_path());
  }

 private:
  std::unique_ptr<Server> server_;
  std::thread io_thread_;
};

/// One request/response round trip, parsed.
json::Value roundtrip(Connection& conn, const std::string& payload) {
  conn.send_frame(payload);
  const auto reply = conn.recv_frame();
  EXPECT_TRUE(reply.has_value()) << "connection closed on: " << payload;
  return json::parse(reply.value_or("null"));
}

std::string submit_payload(const std::string& kind, const std::string& workload,
                           const std::string& format = "E4M3",
                           const std::string& extra = "") {
  return "{\"cmd\":\"submit\",\"kind\":\"" + kind + "\",\"workload\":\"" + workload +
         "\",\"format\":\"" + format + "\",\"quick\":true" + extra + "}";
}

/// Submits one job and blocks until its terminal result arrives.
json::Value submit_and_wait(Connection& conn, const std::string& payload) {
  const json::Value submitted = roundtrip(conn, payload);
  EXPECT_TRUE(submitted.find("ok") != nullptr && submitted.find("ok")->boolean)
      << "submit rejected";
  const auto job_id = static_cast<std::uint64_t>(submitted.number_or("job_id"));
  return roundtrip(conn, "{\"cmd\":\"result\",\"job_id\":" + std::to_string(job_id) +
                             ",\"wait\":true}");
}

/// Round-trips a RunReport through its own JSON so double formatting
/// matches the served (serialized) report exactly.
RunReport through_json(const RunReport& report) {
  std::istringstream in(report.to_json());
  return report_from_json(in);
}

void expect_same_records_and_counters(const RunReport& served, const RunReport& oneshot,
                                      const std::string& label) {
  ASSERT_EQ(served.records.size(), oneshot.records.size()) << label;
  for (std::size_t i = 0; i < served.records.size(); ++i) {
    EXPECT_EQ(served.records[i].workload, oneshot.records[i].workload) << label;
    EXPECT_EQ(served.records[i].config, oneshot.records[i].config) << label;
    EXPECT_EQ(served.records[i].fp32_accuracy, oneshot.records[i].fp32_accuracy) << label;
    EXPECT_EQ(served.records[i].quant_accuracy, oneshot.records[i].quant_accuracy)
        << label;
    EXPECT_EQ(served.records[i].model_size_mb, oneshot.records[i].model_size_mb) << label;
  }
  EXPECT_TRUE(served.counters == oneshot.counters) << label << ": counter delta differs";
}

TEST(Service, ConcurrentJobsAreBitIdenticalToOneShotRuns) {
  set_counters_enabled(true);
  ServerFixture fixture(/*queue_max=*/16);

  // Three distinct specs, submitted concurrently from three connections.
  const std::vector<std::string> payloads = {
      submit_payload("eval", "dlrm-ish", "E4M3"),
      submit_payload("quantize", "dlrm-ish", "E4M3"),
      submit_payload("eval", "resnet50-ish", "E5M2"),
  };
  std::vector<std::thread> clients;
  clients.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    clients.emplace_back([&, i] {
      Connection conn = fixture.connect();
      const json::Value result = submit_and_wait(conn, payloads[i]);
      EXPECT_EQ(result.string_or("state"), "done") << result.string_or("error");
      // The report rides inside the result response as a raw object.
      const json::Value* report = result.find("report");
      ASSERT_NE(report, nullptr);
      EXPECT_TRUE(report->is_object());
      // Re-serialize by slicing the original frame is fragile; instead
      // ask again without wait -- the response is stable once terminal.
      const json::Value again = roundtrip(
          conn, "{\"cmd\":\"result\",\"job_id\":" +
                    std::to_string(static_cast<std::uint64_t>(result.number_or("job_id"))) +
                    "}");
      EXPECT_EQ(again.string_or("state"), "done");
    });
  }
  for (auto& t : clients) t.join();

  // Fetch each report once more through a fresh connection, keeping the
  // raw JSON this time (job ids are 1..3 in submission order, but
  // submission order is racy -- map reports back by spec via tool+records).
  Connection conn = fixture.connect();
  std::vector<RunReport> served;
  for (std::uint64_t id = 1; id <= payloads.size(); ++id) {
    conn.send_frame("{\"cmd\":\"result\",\"job_id\":" + std::to_string(id) + "}");
    const auto reply = conn.recv_frame();
    ASSERT_TRUE(reply.has_value());
    const json::Value parsed = json::parse(*reply);
    ASSERT_EQ(parsed.string_or("state"), "done") << parsed.string_or("error");
    // Slice the raw report object out of the frame so report_from_json
    // sees exactly the bytes the daemon serialized.
    const auto pos = reply->find("\"report\":");
    ASSERT_NE(pos, std::string::npos);
    std::string report_json = reply->substr(pos + 9);
    ASSERT_TRUE(report_json.size() > 1 && report_json.back() == '}');
    report_json.pop_back();  // the result response's closing brace
    std::istringstream in(report_json);
    served.push_back(report_from_json(in));
  }
  fixture.stop();

  // One-shot runs of the same specs, in the same process. Counter deltas
  // are cache-state- and history-invariant (docs/SERVICE.md), so running
  // them after the daemon must reproduce the served records and deltas.
  const std::vector<Workload> suite = build_suite();
  for (const RunReport& report : served) {
    JobSpec spec;
    spec.quick = true;
    if (report.tool == "fp8qd quantize") {
      spec.kind = JobKind::kQuantize;
      spec.workload = "dlrm-ish";
      spec.format = "E4M3";
    } else if (!report.records.empty() &&
               report.records[0].config.rfind("E5M2", 0) == 0) {
      spec.kind = JobKind::kEval;
      spec.workload = "resnet50-ish";
      spec.format = "E5M2";
    } else {
      spec.kind = JobKind::kEval;
      spec.workload = "dlrm-ish";
      spec.format = "E4M3";
    }
    PlanCache cold;
    const RunReport oneshot = through_json(run_job_oneshot(suite, spec, cold));
    expect_same_records_and_counters(report, oneshot, report.tool + "/" + spec.workload);
  }
}

TEST(Service, QuantizeJobsProduceARecordlessReportWithQuantStage) {
  set_counters_enabled(true);
  ServerFixture fixture;
  Connection conn = fixture.connect();
  const json::Value result = submit_and_wait(conn, submit_payload("quantize", "nlp/distil-mlp-0"));
  ASSERT_EQ(result.string_or("state"), "done") << result.string_or("error");
  const json::Value* report = result.find("report");
  ASSERT_NE(report, nullptr);
  // A quantize job calibrates and quantizes but never evaluates.
  const json::Value* stages = report->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_TRUE(stages->is_array());
  ASSERT_FALSE(stages->array.empty());
  EXPECT_EQ(stages->array.front().string_or("name"), "quantize:nlp/distil-mlp-0");
  EXPECT_EQ(report->string_or("tool"), "fp8qd quantize");
}

TEST(Service, QueueFullSubmitsAreRejectedWithBackpressure) {
  set_counters_enabled(true);
  ServerFixture fixture(/*queue_max=*/1);
  Connection conn = fixture.connect();

  // Fire submits far faster than quick jobs can drain: with one running
  // slot and one queue slot, 50 submits sent before any reply is read
  // must hit queue_full, however fast the jobs run.
  for (int i = 0; i < 50; ++i) conn.send_frame(submit_payload("eval", "nlp/distil-mlp-0"));
  int accepted = 0, rejected = 0;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 50; ++i) {
    const auto frame = conn.recv_frame();
    ASSERT_TRUE(frame.has_value()) << "connection closed after " << i << " replies";
    const json::Value reply = json::parse(*frame);
    const json::Value* ok = reply.find("ok");
    if (ok != nullptr && ok->boolean) {
      ++accepted;
      ids.push_back(static_cast<std::uint64_t>(reply.number_or("job_id")));
    } else {
      EXPECT_EQ(reply.string_or("code"), "queue_full");
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);

  // Accepted jobs still finish; rejected ones left no trace.
  for (const std::uint64_t id : ids) {
    const json::Value result = roundtrip(
        conn, "{\"cmd\":\"result\",\"job_id\":" + std::to_string(id) + ",\"wait\":true}");
    EXPECT_EQ(result.string_or("state"), "done");
  }
  const json::Value stats = roundtrip(conn, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(static_cast<int>(stats.find("jobs")->number_or("rejected")), rejected);
  EXPECT_EQ(static_cast<int>(stats.find("jobs")->number_or("completed")), accepted);
}

TEST(Service, ExpiredDeadlineJobsNeverRun) {
  set_counters_enabled(true);
  ServerFixture fixture;
  Connection conn = fixture.connect();
  // A sub-microsecond deadline always lapses before executor pickup.
  const json::Value result = submit_and_wait(
      conn, submit_payload("eval", "nlp/distil-mlp-0", "E4M3", ",\"deadline_ms\":0.000001"));
  EXPECT_EQ(result.string_or("state"), "expired");
  EXPECT_NE(result.string_or("error").find("deadline"), std::string::npos);
}

TEST(Service, CancelOnlyDequeuesQueuedJobs) {
  set_counters_enabled(true);
  ServerFixture fixture;
  Connection conn = fixture.connect();

  const json::Value first = roundtrip(conn, submit_payload("eval", "nlp/distil-mlp-0"));
  const json::Value second = roundtrip(conn, submit_payload("eval", "nlp/distil-mlp-0"));
  const auto second_id = static_cast<std::uint64_t>(second.number_or("job_id"));

  const json::Value cancel = roundtrip(
      conn, "{\"cmd\":\"cancel\",\"job_id\":" + std::to_string(second_id) + "}");
  const json::Value* cancelled = cancel.find("cancelled");
  ASSERT_NE(cancelled, nullptr);
  if (cancelled->boolean) {
    // Was still queued: it must land in the cancelled terminal state.
    const json::Value result = roundtrip(
        conn,
        "{\"cmd\":\"result\",\"job_id\":" + std::to_string(second_id) + ",\"wait\":true}");
    EXPECT_EQ(result.string_or("state"), "cancelled");
  } else {
    // Raced to the executor: it runs to completion instead.
    const json::Value result = roundtrip(
        conn,
        "{\"cmd\":\"result\",\"job_id\":" + std::to_string(second_id) + ",\"wait\":true}");
    EXPECT_EQ(result.string_or("state"), "done");
  }
  // Cancelling an unknown id is a protocol error, not a crash.
  const json::Value missing = roundtrip(conn, "{\"cmd\":\"cancel\",\"job_id\":424242}");
  EXPECT_EQ(missing.string_or("code"), "unknown_job");
  (void)first;
}

TEST(Service, MalformedAndInvalidRequestsGetStructuredErrors) {
  set_counters_enabled(true);
  ServerFixture fixture;
  Connection conn = fixture.connect();

  EXPECT_EQ(roundtrip(conn, "{not json").string_or("code"), "bad_request");
  EXPECT_EQ(roundtrip(conn, "{\"cmd\":\"frobnicate\"}").string_or("code"), "bad_request");
  EXPECT_EQ(roundtrip(conn, submit_payload("eval", "no-such-workload")).string_or("code"),
            "unknown_workload");
  // A tune job's format starts the FP8 ladder, so INT8 and mixed name no
  // tune format (they would otherwise tune E4M3).
  EXPECT_EQ(roundtrip(conn, submit_payload("tune", "dlrm-ish", "INT8")).string_or("code"),
            "unknown_workload");
  EXPECT_EQ(roundtrip(conn, submit_payload("tune", "dlrm-ish", "mixed")).string_or("code"),
            "unknown_workload");
  EXPECT_EQ(roundtrip(conn, "{\"cmd\":\"status\",\"job_id\":999}").string_or("code"),
            "unknown_job");
  // The connection survives every rejected request.
  const json::Value stats = roundtrip(conn, "{\"cmd\":\"stats\"}");
  EXPECT_TRUE(stats.find("ok") != nullptr && stats.find("ok")->boolean);
}

TEST(Service, StatsEndpointTracksJobsAndQueue) {
  set_counters_enabled(true);
  ServerFixture fixture(/*queue_max=*/7);
  Connection conn = fixture.connect();
  const json::Value before = roundtrip(conn, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(static_cast<int>(before.find("queue")->number_or("capacity")), 7);
  EXPECT_EQ(static_cast<int>(before.find("jobs")->number_or("submitted")), 0);

  const json::Value result = submit_and_wait(conn, submit_payload("eval", "nlp/distil-mlp-0"));
  EXPECT_EQ(result.string_or("state"), "done");

  const json::Value after = roundtrip(conn, "{\"cmd\":\"stats\"}");
  EXPECT_EQ(static_cast<int>(after.find("jobs")->number_or("submitted")), 1);
  EXPECT_EQ(static_cast<int>(after.find("jobs")->number_or("completed")), 1);
  EXPECT_GE(after.number_or("uptime_ms"), 0.0);
  const json::Value* latency = after.find("latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(static_cast<int>(latency->find("job_wall")->number_or("count")), 1);
  // The in-process snapshot agrees with the wire response.
  const ServiceStats snap = fixture.server().stats_snapshot();
  EXPECT_EQ(snap.submitted, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.queue_capacity, 7u);
}

TEST(Service, EvalJobsOfOneWorkloadShareOneCachedPlan) {
  set_counters_enabled(true);
  ServerFixture fixture;  // one worker: the jobs run one after another
  Connection conn = fixture.connect();
  for (const char* format : {"E4M3", "E3M4", "E5M2"}) {
    const json::Value result =
        submit_and_wait(conn, submit_payload("eval", "nlp/distil-mlp-0", format));
    ASSERT_EQ(result.string_or("state"), "done") << result.string_or("error");
  }

  const json::Value stats = roundtrip(conn, "{\"cmd\":\"stats\"}");
  const json::Value* plans = stats.find("plan_cache");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(static_cast<int>(plans->number_or("misses")), 1);
  EXPECT_EQ(static_cast<int>(plans->number_or("hits")), 2);
  EXPECT_EQ(static_cast<int>(plans->number_or("entries")), 1);
  EXPECT_EQ(static_cast<int>(plans->number_or("evictions")), 0);
  EXPECT_GT(plans->number_or("bytes"), 0.0);
  // The in-process snapshot carries the same numbers.
  const PlanCacheStats snap = fixture.server().stats_snapshot().plan_cache;
  EXPECT_EQ(snap.misses, 1u);
  EXPECT_EQ(snap.hits, 2u);
  EXPECT_EQ(snap.entries, 1u);
  EXPECT_EQ(static_cast<double>(snap.bytes), plans->number_or("bytes"));
}

TEST(Service, OutOfRangeTcpPortsAreRejectedBeforeBinding) {
  for (const int port : {70000, 65536}) {
    ServerOptions options;
    options.tcp_port = port;
    try {
      Server server(options);
      ADD_FAILURE() << "port " << port << " bound 127.0.0.1:" << server.tcp_port();
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(port)), std::string::npos)
          << e.what();
    }
  }
}

TEST(Service, TcpPortTextMustBeAWholeNumber) {
  EXPECT_EQ(parse_whole_number("--tcp-port", "0"), 0);
  EXPECT_EQ(parse_whole_number("--tcp-port", "8470"), 8470);
  EXPECT_EQ(parse_whole_number("--tcp-port", "-1"), -1);
  for (const char* bad : {"", "abc", "12abc", " 80", "80 ", "1e3", "99999999999"}) {
    EXPECT_THROW((void)parse_whole_number("--tcp-port", bad), std::runtime_error)
        << "'" << bad << "'";
  }
}

TEST(Service, QueueMaxAndWorkersMustBeWholeNumbersOfAtLeastOne) {
  for (const char* name : {"--queue-max", "--workers"}) {
    EXPECT_EQ(parse_whole_number(name, "1", 1), 1);
    EXPECT_EQ(parse_whole_number(name, "100", 1), 100);
    for (const char* bad : {"", "0", "-3", "2x", "12abc", "abc", " 2", "2 ", "4294967298"}) {
      try {
        (void)parse_whole_number(name, bad, 1);
        ADD_FAILURE() << name << " accepted '" << bad << "'";
      } catch (const std::runtime_error& e) {
        // The message names the setting and the rejected text.
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
      }
    }
  }
}

TEST(Service, NumericEnvironmentSettingsMustBeWholeNumbers) {
  static constexpr const char* kNames[] = {"FP8QD_TCP_PORT", "FP8QD_QUEUE_MAX", "FP8QD_WORKERS"};
  struct Unset {
    ~Unset() {
      for (const char* name : kNames) ::unsetenv(name);
    }
  } unset;
  ::setenv("FP8QD_TCP_PORT", "-1", 1);
  ::setenv("FP8QD_QUEUE_MAX", "12", 1);
  ::setenv("FP8QD_WORKERS", "3", 1);
  const ServerOptions good = options_from_env();
  EXPECT_EQ(good.tcp_port, -1);
  EXPECT_EQ(good.queue_max, 12u);
  EXPECT_EQ(good.workers, 3);

  const std::pair<const char*, const char*> bad[] = {
      {"FP8QD_TCP_PORT", "80x"}, {"FP8QD_QUEUE_MAX", "12abc"}, {"FP8QD_QUEUE_MAX", "0"},
      {"FP8QD_WORKERS", "abc"},  {"FP8QD_WORKERS", "2x"},      {"FP8QD_WORKERS", "-1"},
      {"FP8QD_WORKERS", "4294967298"}};
  for (const auto& [name, value] : bad) {
    ::setenv(name, value, 1);
    try {
      (void)options_from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    ::unsetenv(name);
  }
}

TEST(Service, GracefulShutdownDrainsAndAnswersWaiters) {
  set_counters_enabled(true);
  ServerFixture fixture;

  Connection submitter = fixture.connect();
  const json::Value a = roundtrip(submitter, submit_payload("eval", "nlp/distil-mlp-0"));
  const json::Value b = roundtrip(submitter, submit_payload("eval", "dlrm-ish"));
  const auto b_id = static_cast<std::uint64_t>(b.number_or("job_id"));

  // Park a waiter on the second job from a separate connection, then ask
  // for a draining shutdown: the waiter must still get its "done".
  Connection waiter = fixture.connect();
  waiter.send_frame("{\"cmd\":\"result\",\"job_id\":" + std::to_string(b_id) +
                    ",\"wait\":true}");
  const json::Value bye = roundtrip(submitter, "{\"cmd\":\"shutdown\",\"drain\":true}");
  EXPECT_EQ(bye.string_or("state"), "draining");

  const auto answer = waiter.recv_frame();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(json::parse(*answer).string_or("state"), "done");

  // New submits during/after drain are refused.
  fixture.stop();
  (void)a;
}

TEST(Service, JobTableRetainsOnlyTheNewestTerminalJobs) {
  set_counters_enabled(true);
  ServerFixture fixture;
  Connection conn = fixture.connect();

  // Each job is terminal before the next submit, so every submit past the
  // bound evicts exactly the oldest id: after kMaxTerminalJobs + 3 jobs,
  // ids 1..3 are gone and id 4 onward still answer.
  const std::uint64_t total = kMaxTerminalJobs + 3;
  std::uint64_t newest = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    const json::Value result = submit_and_wait(conn, submit_payload("eval", "dlrm-ish"));
    ASSERT_EQ(result.string_or("state"), "done") << result.string_or("error");
    newest = static_cast<std::uint64_t>(result.number_or("job_id"));
  }
  ASSERT_EQ(newest, total);

  for (const char* cmd : {"status", "result", "cancel"}) {
    const json::Value evicted =
        roundtrip(conn, std::string("{\"cmd\":\"") + cmd + "\",\"job_id\":3}");
    EXPECT_EQ(evicted.string_or("code"), "unknown_job") << cmd;
  }
  const json::Value oldest_kept = roundtrip(conn, "{\"cmd\":\"status\",\"job_id\":4}");
  EXPECT_EQ(oldest_kept.string_or("state"), "done");
  const json::Value latest = roundtrip(
      conn, "{\"cmd\":\"result\",\"job_id\":" + std::to_string(newest) + "}");
  EXPECT_EQ(latest.string_or("state"), "done");
  const json::Value* report = latest.find("report");
  ASSERT_NE(report, nullptr);
  ASSERT_NE(report->find("records"), nullptr);
  EXPECT_EQ(report->find("records")->array.size(), 1u);
}

TEST(Service, LoopbackTcpServesJobsToo) {
  set_counters_enabled(true);
  ServerFixture fixture(/*queue_max=*/8, /*tcp_port=*/0);  // ephemeral port
  ASSERT_GT(fixture.server().tcp_port(), 0);
  Connection conn = connect_tcp_loopback(fixture.server().tcp_port());
  const json::Value result = submit_and_wait(conn, submit_payload("eval", "nlp/distil-mlp-0"));
  EXPECT_EQ(result.string_or("state"), "done") << result.string_or("error");
}

}  // namespace
}  // namespace fp8q::service
