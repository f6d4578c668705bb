#include "service/server.h"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "fp8/format.h"
#include "obs/counters.h"
#include "obs/domain.h"
#include "obs/memory.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quant/qconfig.h"
#include "quant/quantized_graph.h"
#include "service/protocol.h"
#include "tune/tuner.h"
#include "workloads/registry.h"

namespace fp8q::service {

namespace {

/// Evaluation budget for a job: the full protocol, or smoke_protocol()
/// when the spec asks for quick.
EvalProtocol protocol_for_spec(const JobSpec& spec) {
  return spec.quick ? smoke_protocol() : EvalProtocol{};
}

}  // namespace

ServerOptions options_from_env() {
  ServerOptions opts;
  const char* sock = std::getenv("FP8QD_SOCKET");
  opts.unix_path = (sock != nullptr && sock[0] != '\0') ? sock : "fp8qd.sock";
  const auto setting = [](const char* name, int fallback, int min) {
    const char* text = std::getenv(name);
    return text != nullptr && text[0] != '\0' ? parse_whole_number(name, text, min) : fallback;
  };
  opts.tcp_port = setting("FP8QD_TCP_PORT", opts.tcp_port, std::numeric_limits<int>::min());
  opts.queue_max =
      static_cast<std::size_t>(setting("FP8QD_QUEUE_MAX", static_cast<int>(opts.queue_max), 1));
  opts.workers = setting("FP8QD_WORKERS", opts.workers, 1);
  return opts;
}

int parse_whole_number(std::string_view name, std::string_view text, int min) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::runtime_error(std::string(name) + ": '" + std::string(text) +
                             "' is not a whole number");
  }
  if (value < min) {
    throw std::runtime_error(std::string(name) + ": " + std::string(text) +
                             " is below the minimum of " + std::to_string(min));
  }
  return value;
}

RunReport run_job_oneshot(const std::vector<Workload>& suite, const JobSpec& spec,
                          PlanCache& plans) {
  const Workload& w = find_workload(suite, spec.workload);
  const EvalProtocol protocol = protocol_for_spec(spec);

  RunReport report;
  report.tool = std::string("fp8qd ") + to_string(spec.kind);
  report.num_threads = num_threads();
  report.isa = isa_label();

  // The whole job body runs under a fresh observation domain: every
  // counter, allocation and histogram the job (and its parallel fan-out)
  // produces lands in `domain`, so the report's counter blocks are this
  // job's exact events -- no root before/after snapshots, hence exact even
  // with other jobs running concurrently. The domain also carries `report`,
  // so the job's stages land there. The fold guard moves the tallies
  // into the caller's enclosing domain (normally the root) on every exit
  // path, so cumulative process-wide totals are unchanged by the detour.
  CounterDomain domain;
  domain.set_report(&report);
  struct FoldGuard {
    CounterDomain& domain;
    ~FoldGuard() { domain.fold_into_global(); }
  } fold_guard{domain};
  {
    ScopedCounterDomain domain_scope(&domain);
    switch (spec.kind) {
      case JobKind::kEval: {
        report.records.push_back(evaluate_with_plan(
            *plans.get(w, protocol),
            default_model_config(w, scheme_from_name(spec.format, spec.dynamic), protocol)));
        break;
      }
      case JobKind::kTune: {
        TuneOptions options;
        if (spec.quick) options.max_trials = 6;
        const TuneResult r =
            autotune(w, fp8_dtype(fp8_kind_from_string(spec.format)), protocol, options);
        for (const auto& step : r.history) report.records.push_back(step.record);
        break;
      }
      case JobKind::kQuantize: {
        ScopedStage stage("quantize:" + w.name);
        const ModelQuantConfig cfg =
            default_model_config(w, scheme_from_name(spec.format, spec.dynamic), protocol);
        Graph graph = w.build();
        const auto calib = make_calib_batches(w, protocol);
        QuantizedGraph quantized(&graph, cfg);
        quantized.prepare(std::span<const std::vector<Tensor>>(calib));
        break;
      }
    }
  }

  report.counters = domain.counters();
  const AllocCounterSnapshot alloc_delta = domain.alloc_counters();
  report.memory.alloc_bytes = alloc_delta.bytes;
  report.memory.allocs = alloc_delta.allocs;
  report.memory.peak_rss_bytes = peak_rss_bytes();
  return report;
}

Server::Server(ServerOptions options)
    : queue_(options.queue_max == 0 ? 1 : options.queue_max) {
  if (options.unix_path.empty() && options.tcp_port < 0) {
    throw std::runtime_error("fp8qd: no listener configured (need a socket path or a "
                             "TCP port)");
  }
  // TCP first: listen_tcp_loopback rejects an out-of-range port before
  // anything is bound.
  if (options.tcp_port >= 0) {
    tcp_listener_ = listen_tcp_loopback(options.tcp_port);
    tcp_port_ = tcp_listener_.tcp_port();
  }
  if (!options.unix_path.empty()) {
    unix_listener_ = listen_unix(options.unix_path);
    unix_path_ = options.unix_path;
  }
  workers_ = options.workers < 1 ? 1 : (options.workers > 64 ? 64 : options.workers);
  slots_.resize(static_cast<std::size_t>(workers_));
  // The daemon always counts: per-job reports are the product it serves.
  set_counters_enabled(true);
  suite_ = build_suite();
  start_ns_ = obs_now_ns();
}

Server::~Server() {
  // run() joins the executors on the normal path; this covers a Server
  // that was constructed but whose run() threw or was never called.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_mode_ = true;
  }
  executor_cv_.notify_all();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

void Server::request_shutdown() noexcept {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  wake_.signal();
}

ServiceStats Server::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_snapshot_locked();
}

ServiceStats Server::stats_snapshot_locked() const {
  const std::uint64_t now = obs_now_ns();
  ServiceStats s;
  s.uptime_ns = now - start_ns_;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.expired = expired_;
  s.rejected = rejected_;
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.workers = workers_;
  s.active_jobs = active_jobs_;
  s.draining = drain_mode_;
  s.per_worker.reserve(slots_.size());
  for (const WorkerSlot& slot : slots_) {
    WorkerStats w;
    w.jobs = slot.jobs;
    std::uint64_t busy = slot.busy_ns;
    if (slot.busy_since_ns != 0 && now > slot.busy_since_ns) busy += now - slot.busy_since_ns;
    w.busy_fraction = s.uptime_ns != 0
                          ? static_cast<double>(busy) / static_cast<double>(s.uptime_ns)
                          : 0.0;
    if (w.busy_fraction > 1.0) w.busy_fraction = 1.0;
    s.per_worker.push_back(w);
  }
  s.job_wall_ns = job_wall_ns_.snap;
  s.queue_wait_ns = queue_wait_ns_.snap;
  s.plan_cache = plans_.stats();
  return s;
}

void Server::executor_loop(int slot) {
  WorkerSlot& mine = slots_[static_cast<std::size_t>(slot)];
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      executor_cv_.wait(lock, [this] { return drain_mode_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Drain mode with nothing left: this worker is done for good.
        ++executors_done_;
        wake_.signal();
        return;
      }
      job = queue_.pop_best();
      if (expire_if_overdue_locked(*job, /*already_popped=*/true)) {
        wake_.signal();
        continue;
      }
      job->state = JobState::kRunning;
      job->start_ns = obs_now_ns();
      ++active_jobs_;
      ++mine.jobs;
      mine.busy_since_ns = job->start_ns;
    }

    // Run the job body outside the lock: submits/status/stats stay
    // responsive, and the other workers run their own jobs concurrently
    // -- each under its own observation domain (run_job_oneshot), with
    // every job's parallel streams open on the one global pool.
    std::string report_json;
    std::string error;
    try {
      report_json = run_job_oneshot(suite_, job->spec, plans_).to_json();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown error";
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->finish_ns = obs_now_ns();
      if (error.empty()) {
        job->state = JobState::kDone;
        job->report_json = std::move(report_json);
        ++completed_;
      } else {
        job->state = JobState::kFailed;
        job->error = std::move(error);
        ++failed_;
      }
      job_wall_ns_.record(static_cast<double>(job->finish_ns - job->start_ns));
      queue_wait_ns_.record(static_cast<double>(job->start_ns - job->submit_ns));
      mine.busy_ns += job->finish_ns - job->start_ns;
      mine.busy_since_ns = 0;
      --active_jobs_;
    }
    wake_.signal();
  }
}

bool Server::expire_if_overdue_locked(Job& job, bool already_popped) {
  if (job.spec.deadline_ms <= 0.0 || job.state != JobState::kQueued) return false;
  const std::uint64_t now = obs_now_ns();
  if (static_cast<double>(now - job.submit_ns) <= job.spec.deadline_ms * 1e6) return false;
  // Dequeue path: the worker already popped the job, nothing to remove.
  // Observation path (status/result): the job must still be removable --
  // losing the remove race means a worker claimed it, and a claimed job
  // runs to completion.
  if (!already_popped && queue_.remove(job.id) == nullptr) return false;
  job.state = JobState::kExpired;
  job.finish_ns = now;
  job.error = "deadline of " + std::to_string(job.spec.deadline_ms) +
              " ms elapsed while queued";
  ++expired_;
  return true;
}

void Server::evict_terminal_jobs_locked() {
  std::size_t terminal = 0;
  for (const auto& [id, job] : jobs_) terminal += is_terminal(job->state) ? 1 : 0;
  // jobs_ is ordered by id, i.e. by submission: the oldest go first.
  for (auto it = jobs_.begin(); it != jobs_.end() && terminal >= kMaxTerminalJobs;) {
    if (is_terminal(it->second->state)) {
      it = jobs_.erase(it);
      --terminal;
    } else {
      ++it;
    }
  }
}

void Server::begin_drain(bool cancel_queued) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancel_queued) {
      while (std::shared_ptr<Job> job = queue_.pop_best()) {
        job->state = JobState::kCancelled;
        job->finish_ns = obs_now_ns();
        job->error = "cancelled by non-draining shutdown";
        ++cancelled_;
      }
    }
    drain_mode_ = true;
  }
  executor_cv_.notify_all();
}

std::string Server::result_response_locked(const Job& job) {
  std::string out = "{\"ok\":true,\"job_id\":";
  out += std::to_string(job.id);
  out += ",\"state\":";
  out += json_quoted(to_string(job.state));
  if (job.state == JobState::kDone) {
    out += ",\"wall_ms\":";
    out += std::to_string(static_cast<double>(job.finish_ns - job.start_ns) / 1e6);
    out += ",\"queue_wait_ms\":";
    out += std::to_string(static_cast<double>(job.start_ns - job.submit_ns) / 1e6);
    out += ",\"report\":";
    out += job.report_json;  // already a JSON object
  } else if (is_terminal(job.state)) {
    out += ",\"error\":";
    out += json_quoted(job.error);
  }
  out += "}";
  return out;
}

std::string Server::stats_response_locked() const {
  const ServiceStats s = stats_snapshot_locked();
  std::string out = "{\"ok\":true,\"uptime_ms\":";
  out += std::to_string(static_cast<double>(s.uptime_ns) / 1e6);
  out += ",\"isa\":";
  out += json_quoted(isa_label());
  out += ",\"num_threads\":";
  out += std::to_string(num_threads());
  out += ",\"jobs\":{\"submitted\":";
  out += std::to_string(s.submitted);
  out += ",\"completed\":";
  out += std::to_string(s.completed);
  out += ",\"failed\":";
  out += std::to_string(s.failed);
  out += ",\"cancelled\":";
  out += std::to_string(s.cancelled);
  out += ",\"expired\":";
  out += std::to_string(s.expired);
  out += ",\"rejected\":";
  out += std::to_string(s.rejected);
  out += "},\"queue\":{\"depth\":";
  out += std::to_string(s.queue_depth);
  out += ",\"capacity\":";
  out += std::to_string(s.queue_capacity);
  out += ",\"running\":";
  out += std::to_string(s.active_jobs);
  out += ",\"draining\":";
  out += s.draining ? "true" : "false";
  out += "},\"scheduler\":{\"workers\":";
  out += std::to_string(s.workers);
  out += ",\"active_jobs\":";
  out += std::to_string(s.active_jobs);
  out += ",\"per_worker\":[";
  for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
    out += i == 0 ? "{" : ",{";
    out += "\"jobs\":";
    out += std::to_string(s.per_worker[i].jobs);
    out += ",\"busy_fraction\":";
    out += std::to_string(s.per_worker[i].busy_fraction);
    out += "}";
  }
  out += "]},\"latency_ms\":{\"job_wall\":";
  append_quantiles(out, s.job_wall_ns, 1.0 / 1e6);
  out += ",\"queue_wait\":";
  append_quantiles(out, s.queue_wait_ns, 1.0 / 1e6);
  out += "},\"plan_cache\":{\"entries\":";
  out += std::to_string(s.plan_cache.entries);
  out += ",\"bytes\":";
  out += std::to_string(s.plan_cache.bytes);
  out += ",\"hits\":";
  out += std::to_string(s.plan_cache.hits);
  out += ",\"misses\":";
  out += std::to_string(s.plan_cache.misses);
  out += ",\"evictions\":";
  out += std::to_string(s.plan_cache.evictions);
  out += "}}";
  return out;
}

std::optional<std::string> Server::handle_frame(const std::string& payload,
                                                Client& client) {
  Request req;
  try {
    req = parse_request(payload);
  } catch (const std::exception& e) {
    return error_response("bad_request", e.what());
  }

  switch (req.cmd) {
    case Request::Cmd::kSubmit: {
      // Validate outside the lock; both throw on bad input. A tune job's
      // format is the ladder's starting FP8 format, so it must name one.
      try {
        (void)find_workload(suite_, req.spec.workload);
        if (req.spec.kind == JobKind::kTune) {
          (void)fp8_kind_from_string(req.spec.format);
        } else {
          (void)scheme_from_name(req.spec.format, req.spec.dynamic);
        }
      } catch (const std::exception& e) {
        return error_response("unknown_workload", e.what());
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (drain_mode_) {
        return error_response("draining", "server is shutting down; not accepting jobs");
      }
      auto job = std::make_shared<Job>();
      job->spec = req.spec;
      job->submit_ns = obs_now_ns();
      job->id = next_job_id_;
      if (!queue_.push(job)) {
        ++rejected_;
        return error_response("queue_full",
                              "admission queue is full (" +
                                  std::to_string(queue_.capacity()) +
                                  " jobs); retry after a result is consumed");
      }
      ++next_job_id_;
      ++submitted_;
      evict_terminal_jobs_locked();
      jobs_.emplace(job->id, job);
      executor_cv_.notify_one();
      std::string out = "{\"ok\":true,\"job_id\":";
      out += std::to_string(job->id);
      out += ",\"state\":\"queued\",\"queue_depth\":";
      out += std::to_string(queue_.size());
      out += "}";
      return out;
    }
    case Request::Cmd::kStatus: {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(req.job_id);
      if (it == jobs_.end()) {
        return error_response("unknown_job", "no job " + std::to_string(req.job_id));
      }
      // A past-deadline job expires the moment anyone observes it, not
      // only when a worker would have dequeued it.
      if (expire_if_overdue_locked(*it->second)) wake_.signal();
      std::string out = "{\"ok\":true,\"job_id\":";
      out += std::to_string(req.job_id);
      out += ",\"state\":";
      out += json_quoted(to_string(it->second->state));
      out += ",\"queue_depth\":";
      out += std::to_string(queue_.size());
      out += "}";
      return out;
    }
    case Request::Cmd::kResult: {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(req.job_id);
      if (it == jobs_.end()) {
        return error_response("unknown_job", "no job " + std::to_string(req.job_id));
      }
      if (expire_if_overdue_locked(*it->second)) wake_.signal();
      if (is_terminal(it->second->state)) return result_response_locked(*it->second);
      if (req.wait) {
        client.waiting.push_back(req.job_id);
        return std::nullopt;  // answered by flush_waiters when terminal
      }
      std::string out = "{\"ok\":true,\"job_id\":";
      out += std::to_string(req.job_id);
      out += ",\"state\":";
      out += json_quoted(to_string(it->second->state));
      out += "}";
      return out;
    }
    case Request::Cmd::kCancel: {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(req.job_id);
      if (it == jobs_.end()) {
        return error_response("unknown_job", "no job " + std::to_string(req.job_id));
      }
      std::shared_ptr<Job> job = it->second;
      bool cancelled = false;
      if (job->state == JobState::kQueued && queue_.remove(req.job_id) != nullptr) {
        job->state = JobState::kCancelled;
        job->finish_ns = obs_now_ns();
        job->error = "cancelled by request";
        ++cancelled_;
        cancelled = true;
      }
      std::string out = "{\"ok\":true,\"job_id\":";
      out += std::to_string(req.job_id);
      out += ",\"cancelled\":";
      out += cancelled ? "true" : "false";
      out += ",\"state\":";
      out += json_quoted(to_string(job->state));
      out += "}";
      return out;
    }
    case Request::Cmd::kStats: {
      std::lock_guard<std::mutex> lock(mutex_);
      return stats_response_locked();
    }
    case Request::Cmd::kShutdown: {
      std::size_t queued = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        queued = queue_.size();
      }
      begin_drain(/*cancel_queued=*/!req.drain);
      std::string out = "{\"ok\":true,\"state\":\"draining\",\"queued\":";
      out += std::to_string(req.drain ? queued : 0);
      out += "}";
      return out;
    }
  }
  return error_response("bad_request", "unhandled command");
}

void Server::flush_waiters(std::vector<Client>& clients) {
  for (Client& client : clients) {
    if (client.waiting.empty() || !client.conn.valid()) continue;
    std::vector<std::string> responses;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::vector<std::uint64_t> still_waiting;
      for (const std::uint64_t id : client.waiting) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) {
          // Evicted from the job table (evict_terminal_jobs_locked) before
          // this waiter could be answered.
          responses.push_back(error_response("unknown_job", "no job " + std::to_string(id)));
        } else if (is_terminal(it->second->state)) {
          responses.push_back(result_response_locked(*it->second));
        } else {
          still_waiting.push_back(id);
        }
      }
      client.waiting = std::move(still_waiting);
    }
    for (const std::string& response : responses) {
      try {
        client.conn.send_frame(response);
      } catch (const std::exception&) {
        client.conn = Connection();  // peer vanished; drop the connection
        break;
      }
    }
  }
}

void Server::run() {
  executors_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
  std::vector<Client> clients;

  for (;;) {
    if (shutdown_requested_.exchange(false, std::memory_order_relaxed)) {
      begin_drain(/*cancel_queued=*/false);
    }

    // Exit once draining is complete and every answerable waiter has been
    // answered (all jobs are terminal at that point, so flush_waiters has
    // emptied the waiting lists).
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (drain_mode_ && executors_done_ == static_cast<std::size_t>(workers_)) break;
    }

    std::vector<PollFd> fds;
    fds.push_back(PollFd{wake_.read_fd(), false});
    if (unix_listener_.valid()) fds.push_back(PollFd{unix_listener_.fd(), false});
    if (tcp_listener_.valid()) fds.push_back(PollFd{tcp_listener_.fd(), false});
    const std::size_t first_client = fds.size();
    const std::size_t polled_clients = clients.size();
    for (const Client& client : clients) {
      if (client.conn.valid()) fds.push_back(PollFd{client.conn.fd(), false});
    }
    (void)poll_readable(fds, /*timeout_ms=*/250);

    std::size_t at = 0;
    if (fds[at++].readable) wake_.drain();
    for (Listener* listener : {&unix_listener_, &tcp_listener_}) {
      if (!listener->valid()) continue;
      if (fds[at++].readable) {
        while (auto conn = listener->accept_connection()) {
          clients.push_back(Client{std::move(*conn), {}});
        }
      }
    }

    // Read every readable connection and answer complete frames. fds
    // indexes only the connections that existed when polled -- clients
    // accepted above wait for the next poll round.
    std::size_t poll_idx = first_client;
    for (std::size_t ci = 0; ci < polled_clients; ++ci) {
      Client& client = clients[ci];
      if (!client.conn.valid()) continue;
      const bool readable = fds[poll_idx++].readable;
      if (!readable) continue;
      bool alive = true;
      try {
        alive = client.conn.fill_from_socket();
        while (auto frame = client.conn.next_buffered_frame()) {
          if (auto response = handle_frame(*frame, client)) {
            client.conn.send_frame(*response);
          }
        }
      } catch (const std::exception&) {
        // Malformed framing or a send failure: drop the connection. A
        // frame-level protocol error cannot be answered reliably because
        // the byte stream is no longer aligned.
        alive = false;
      }
      if (!alive) client.conn = Connection();
    }

    flush_waiters(clients);
    std::erase_if(clients, [](const Client& c) { return !c.conn.valid(); });
  }

  // Final flush: answer waiters whose jobs finished in the last executor
  // round before the loop observed the last executors_done_ increment.
  flush_waiters(clients);
  for (std::thread& t : executors_) t.join();
  executors_.clear();
}

}  // namespace fp8q::service
