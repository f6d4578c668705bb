// The fp8qd wire protocol: request parsing and response building
// (docs/SERVICE.md has the full spec with examples).
//
// Every frame payload is one JSON object. Requests carry a "cmd" field
// (submit / status / result / cancel / stats / shutdown); responses always
// carry "ok" (true/false) and, on failure, a stable machine-readable
// "code" plus a human-readable "error". Requests are parsed with the
// hardened io/json reader -- a truncated or malformed request throws and
// is answered with a bad_request error, never half-applied.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/histogram.h"

namespace fp8q::service {

/// What a submitted job runs. Mirrors the fp8q_cli subcommands.
enum class JobKind : std::uint8_t {
  kQuantize,  ///< PTQ pipeline only (QuantizedGraph::prepare), no scoring
  kEval,      ///< full PTQ + fidelity evaluation (evaluate_workload)
  kTune,      ///< accuracy-driven autotune ladder
};

/// Job lifecycle. Terminal states: kDone, kFailed, kCancelled, kExpired.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,     ///< the job body threw; the error string is retained
  kCancelled,  ///< removed from the queue by a cancel request (or shutdown)
  kExpired,    ///< deadline_ms elapsed before the job reached the executor
};

[[nodiscard]] const char* to_string(JobKind kind);
[[nodiscard]] const char* to_string(JobState state);

/// Parses "quantize" / "eval" / "tune"; throws std::runtime_error.
[[nodiscard]] JobKind job_kind_from_string(std::string_view s);

/// True when the state is final (the job will never change again).
[[nodiscard]] constexpr bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled || state == JobState::kExpired;
}

/// One job request, as carried by a submit command.
struct JobSpec {
  JobKind kind = JobKind::kEval;
  std::string workload;        ///< suite workload name, e.g. "dlrm-ish"
  std::string format = "E4M3"; ///< E5M2 | E4M3 | E3M4 | INT8 | mixed
  bool dynamic = false;        ///< dynamic activation quantization (eval)
  bool quick = false;          ///< smoke-sized EvalProtocol (see protocol.cpp)
  int priority = 0;            ///< higher runs first; ties are FIFO
  double deadline_ms = 0.0;    ///< queue-wait budget; 0 = none
};

/// One parsed request frame.
struct Request {
  enum class Cmd : std::uint8_t { kSubmit, kStatus, kResult, kCancel, kStats, kShutdown };

  Cmd cmd = Cmd::kStats;
  JobSpec spec;               ///< submit only
  std::uint64_t job_id = 0;   ///< status / result / cancel
  bool wait = false;          ///< result: defer the response until terminal
  bool drain = true;          ///< shutdown: finish queued jobs (false = drop them)
};

/// Parses one request payload. Throws std::runtime_error on anything
/// malformed: bad JSON, missing/unknown "cmd", bad field types, unknown
/// job kind, out-of-range priority or deadline.
[[nodiscard]] Request parse_request(std::string_view payload);

/// Appends h's {"count","p50","p95","p99","max"} block to `out`, each
/// value times `scale` (1.0 / 1e6 turns nanoseconds into milliseconds):
/// the latency blocks of the stats endpoint and of fp8qd_bench snapshots.
void append_quantiles(std::string& out, const HistogramSnapshot& h, double scale);

/// {"ok":false,"code":code,"error":message} -- codes are part of the
/// protocol contract: bad_request, unknown_workload, unknown_job,
/// queue_full, draining.
[[nodiscard]] std::string error_response(std::string_view code, std::string_view message);

}  // namespace fp8q::service
