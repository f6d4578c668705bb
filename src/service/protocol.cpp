#include "service/protocol.h"

#include <stdexcept>

#include "io/json.h"
#include "obs/report.h"

namespace fp8q::service {

namespace {

/// Boolean under `key` if present; `fallback` otherwise. Non-boolean
/// values are a protocol error (strictness mirrors io/json.h).
bool bool_or(const json::Value& v, std::string_view key, bool fallback) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  if (f->kind != json::Value::Kind::kBool) {
    throw std::runtime_error(std::string("field \"") + std::string(key) +
                             "\" must be a boolean");
  }
  return f->boolean;
}

double number_field(const json::Value& v, std::string_view key, double fallback) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return fallback;
  if (f->kind != json::Value::Kind::kNumber) {
    throw std::runtime_error(std::string("field \"") + std::string(key) +
                             "\" must be a number");
  }
  return f->number;
}

std::string string_field(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  if (f == nullptr) return {};
  if (f->kind != json::Value::Kind::kString) {
    throw std::runtime_error(std::string("field \"") + std::string(key) +
                             "\" must be a string");
  }
  return f->str;
}

std::uint64_t job_id_field(const json::Value& v) {
  const json::Value* f = v.find("job_id");
  if (f == nullptr || f->kind != json::Value::Kind::kNumber || f->number < 1 ||
      f->number != static_cast<double>(static_cast<std::uint64_t>(f->number))) {
    throw std::runtime_error("field \"job_id\" must be a positive integer");
  }
  return static_cast<std::uint64_t>(f->number);
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kQuantize: return "quantize";
    case JobKind::kEval: return "eval";
    case JobKind::kTune: return "tune";
  }
  return "?";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "?";
}

JobKind job_kind_from_string(std::string_view s) {
  if (s == "quantize") return JobKind::kQuantize;
  if (s == "eval") return JobKind::kEval;
  if (s == "tune") return JobKind::kTune;
  throw std::runtime_error("unknown job kind \"" + std::string(s) +
                           "\" (expected quantize | eval | tune)");
}

Request parse_request(std::string_view payload) {
  const json::Value root = json::parse(std::string(payload));
  if (!root.is_object()) throw std::runtime_error("request is not a JSON object");

  const std::string cmd = string_field(root, "cmd");
  if (cmd.empty()) throw std::runtime_error("missing \"cmd\" field");

  Request req;
  if (cmd == "submit") {
    req.cmd = Request::Cmd::kSubmit;
    req.spec.kind = job_kind_from_string(string_field(root, "kind"));
    req.spec.workload = string_field(root, "workload");
    if (req.spec.workload.empty()) {
      throw std::runtime_error("submit requires a \"workload\" name");
    }
    if (const json::Value* f = root.find("format"); f != nullptr) {
      req.spec.format = string_field(root, "format");
    }
    req.spec.dynamic = bool_or(root, "dynamic", false);
    req.spec.quick = bool_or(root, "quick", false);
    const double priority = number_field(root, "priority", 0.0);
    if (priority < -1000 || priority > 1000 ||
        priority != static_cast<double>(static_cast<int>(priority))) {
      throw std::runtime_error("\"priority\" must be an integer in [-1000, 1000]");
    }
    req.spec.priority = static_cast<int>(priority);
    req.spec.deadline_ms = number_field(root, "deadline_ms", 0.0);
    if (req.spec.deadline_ms < 0) {
      throw std::runtime_error("\"deadline_ms\" must be >= 0");
    }
    return req;
  }
  if (cmd == "status") {
    req.cmd = Request::Cmd::kStatus;
    req.job_id = job_id_field(root);
    return req;
  }
  if (cmd == "result") {
    req.cmd = Request::Cmd::kResult;
    req.job_id = job_id_field(root);
    req.wait = bool_or(root, "wait", false);
    return req;
  }
  if (cmd == "cancel") {
    req.cmd = Request::Cmd::kCancel;
    req.job_id = job_id_field(root);
    return req;
  }
  if (cmd == "stats") {
    req.cmd = Request::Cmd::kStats;
    return req;
  }
  if (cmd == "shutdown") {
    req.cmd = Request::Cmd::kShutdown;
    req.drain = bool_or(root, "drain", true);
    return req;
  }
  throw std::runtime_error("unknown command \"" + cmd +
                           "\" (expected submit | status | result | cancel | stats | "
                           "shutdown)");
}

void append_quantiles(std::string& out, const HistogramSnapshot& h, double scale) {
  out += "{\"count\":";
  out += std::to_string(h.total);
  out += ",\"p50\":" + std::to_string(h.quantile(0.50) * scale);
  out += ",\"p95\":" + std::to_string(h.quantile(0.95) * scale);
  out += ",\"p99\":" + std::to_string(h.quantile(0.99) * scale);
  out += ",\"max\":" + std::to_string((h.total != 0 ? h.max_value : 0.0) * scale);
  out += "}";
}

std::string error_response(std::string_view code, std::string_view message) {
  std::string out = "{\"ok\":false,\"code\":";
  out += json_quoted(code);
  out += ",\"error\":";
  out += json_quoted(message);
  out += "}";
  return out;
}

}  // namespace fp8q::service
