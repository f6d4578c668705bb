// The fp8qd resident quantization server (docs/SERVICE.md).
//
// Turns the one-shot CLI workflow into a long-running daemon: clients
// connect over a Unix-domain (or loopback-TCP) socket, submit
// quantize/eval/tune jobs against the 75-workload suite, and stream back
// the same structured report JSON the CLI writes -- with the process
// staying resident, so the built workload suite and the warmed thread pool
// carry over between requests.
//
// Concurrency model: one poll(2) I/O thread (the caller of run())
// multiplexes every connection and owns all protocol state, and a pool of
// FP8QD_WORKERS executor threads pulls jobs from the bounded priority
// queue and runs them CONCURRENTLY. Every job runs under a fresh
// CounterDomain (obs/domain.h), bound on its executor and propagated to
// every core/parallel unit it fans out, so its report counter blocks are
// exact per-job deltas by construction -- bit-identical to a one-shot run
// of the same spec at any worker count and any interleaving. The domain
// folds into the process root domain when the job finishes, so cumulative
// totals still add up. The executors dispatch straight onto the one global
// pool: each drains its own job's streams, the pool's workers take units
// from every open stream, and each executor with a stream open counts as
// one of the num_threads() threads (core/parallel.h), so N executors share
// the machine and a job's serial stretch leaves the pool's other threads
// to the other jobs.
//
// A running job shares no mutable state with other jobs: it builds its own
// model copy and quantized weights. Eval jobs share one read-only EvalPlan
// per (workload, protocol) through the server's PlanCache
// (service/plan_cache.h); a plan is a pure function of its key and records
// no quantization events, so sharing it changes no report. The only locks
// a job can contend on are the plan cache's and the process-global trace
// buffers.
//
// Memory stays bounded under sustained load: the job table keeps at most
// kMaxTerminalJobs finished (terminal) jobs, evicting the oldest at each
// submit, and an evicted id answers unknown_job. The plan cache holds at
// most kPlanCacheBytes of plans, evicting the least recently used.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "obs/histogram.h"
#include "obs/report.h"
#include "service/job_queue.h"
#include "service/net.h"
#include "service/plan_cache.h"
#include "workloads/workload.h"

// Lint note (tools/fp8q_lint.cpp raw-thread rule): service/server.cpp is
// exempt -- the daemon's executor is a long-lived service thread by
// design, not pool work; everything *inside* a job still runs on the
// core/parallel pool.
#include <condition_variable>

namespace fp8q::service {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the Unix listener.
  std::string unix_path;
  /// Loopback TCP port: -1 disables, 0 picks an ephemeral port.
  int tcp_port = -1;
  /// Admission-queue capacity (jobs queued beyond the ones running).
  std::size_t queue_max = 64;
  /// Executor worker count: jobs running concurrently, each under its own
  /// observation domain, all sharing the global parallel pool. Clamped to
  /// [1, 64].
  int workers = 1;
};

/// Terminal (done/failed/cancelled/expired) jobs the job table retains for
/// status/result queries. Beyond it, each submit forgets the oldest ones.
inline constexpr std::size_t kMaxTerminalJobs = 256;

/// ServerOptions from the environment: FP8QD_SOCKET (default
/// "fp8qd.sock"), FP8QD_TCP_PORT, FP8QD_QUEUE_MAX, FP8QD_WORKERS. An unset
/// or empty variable keeps the default; a set numeric one goes through
/// parse_whole_number, which throws on a bad value.
[[nodiscard]] ServerOptions options_from_env();

/// Parses the numeric fp8qd setting `name` (a flag or environment
/// variable, named in the error): a whole decimal int -- an optional '-'
/// and digits, nothing else, within int's range -- that is at least
/// `min`. Throws std::runtime_error on anything else. The TCP port takes
/// any int (a negative one disables TCP; the upper bound is checked when
/// the port is bound); the queue capacity and the worker count take
/// min = 1, and the Server clamps workers to 64.
[[nodiscard]] int parse_whole_number(std::string_view name, std::string_view text,
                                     int min = std::numeric_limits<int>::min());

/// One executor worker's utilization (the stats endpoint's per_worker row).
struct WorkerStats {
  std::uint64_t jobs = 0;      ///< jobs this worker picked up
  double busy_fraction = 0.0;  ///< busy wall time / server uptime, [0, 1]
};

/// Point-in-time service statistics (the stats endpoint's source).
struct ServiceStats {
  std::uint64_t uptime_ns = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;  ///< queue_full submit rejections
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  int workers = 1;              ///< executor worker count
  std::size_t active_jobs = 0;  ///< jobs running right now (<= workers)
  bool draining = false;
  std::vector<WorkerStats> per_worker;  ///< one row per executor worker
  HistogramSnapshot job_wall_ns;    ///< executor wall time per finished job
  HistogramSnapshot queue_wait_ns;  ///< admission -> executor pickup
  PlanCacheStats plan_cache;        ///< the eval-plan cache
};

/// Executes one job spec end to end and returns its report -- exactly the
/// code path the daemon's executors run, minus the queueing. The job body
/// runs under a fresh CounterDomain (obs/domain.h) that folds into the
/// caller's enclosing domain on return, so the report's counter blocks are
/// the job's exact events whether the caller is an executor worker, a
/// test, or an embedder -- served and one-shot runs are the same code by
/// construction. An eval job takes its EvalPlan from `plans`, building it
/// there on a miss; pass a fresh PlanCache for a cold run. Public so the
/// end-to-end tests can compare a served job's report against a direct
/// run of the same spec. Throws on unknown workloads/formats and on
/// job-body failures.
[[nodiscard]] RunReport run_job_oneshot(const std::vector<Workload>& suite,
                                        const JobSpec& spec, PlanCache& plans);

class Server {
 public:
  /// Binds the listeners and builds the workload suite; throws
  /// std::runtime_error when a socket cannot be bound.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const std::string& unix_path() const { return unix_path_; }
  /// Bound TCP port, or -1 when the TCP listener is disabled.
  [[nodiscard]] int tcp_port() const { return tcp_port_; }

  /// Serves until a shutdown request has been honored and the executor
  /// drained. Call from exactly one thread; it becomes the I/O thread.
  void run();

  /// Requests a draining shutdown from any thread or signal handler
  /// (async-signal-safe: one atomic store + one self-pipe write).
  void request_shutdown() noexcept;

  /// Snapshot for embedders/tools (the JSON stats endpoint carries the
  /// same numbers plus ISA details).
  [[nodiscard]] ServiceStats stats_snapshot() const;

 private:
  struct Client {
    Connection conn;
    std::vector<std::uint64_t> waiting;  ///< deferred result-wait job ids
  };

  void executor_loop(int slot);
  /// Expires a queued, past-deadline job. Called at dequeue (the worker
  /// just popped it: already_popped) AND when a status/result request
  /// observes a pending job -- so expiry does not wait for a worker to
  /// come free. In the observation path the job must still be removable
  /// from the queue; losing that race means a worker claimed it, and a
  /// claimed job runs. Returns true when the job was expired. Caller
  /// holds mutex_.
  bool expire_if_overdue_locked(Job& job, bool already_popped = false);
  /// Handles one request frame; nullopt when the response is deferred
  /// (result with wait=true on a non-terminal job).
  [[nodiscard]] std::optional<std::string> handle_frame(const std::string& payload,
                                                        Client& client);
  /// Answers every deferred result-wait whose job reached a terminal
  /// state.
  void flush_waiters(std::vector<Client>& clients);
  /// Forgets the oldest terminal jobs until fewer than kMaxTerminalJobs
  /// remain. Called at submit; caller holds mutex_.
  void evict_terminal_jobs_locked();
  /// Enters drain mode; with cancel_queued, empties the queue as
  /// kCancelled first.
  void begin_drain(bool cancel_queued);

  // "_locked" = caller holds mutex_.
  [[nodiscard]] std::string result_response_locked(const Job& job);
  [[nodiscard]] ServiceStats stats_snapshot_locked() const;
  /// The stats endpoint's JSON, rendered from one stats_snapshot_locked().
  [[nodiscard]] std::string stats_response_locked() const;

  /// One executor worker's utilization ledger. busy_since_ns != 0 marks a
  /// job in flight; the stats endpoint adds the open interval so
  /// busy_fraction is live, not end-of-job.
  struct WorkerSlot {
    std::uint64_t jobs = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t busy_since_ns = 0;  ///< 0 = idle
  };

  // Immutable after construction.
  Listener unix_listener_;
  Listener tcp_listener_;
  std::string unix_path_;
  int tcp_port_ = -1;
  std::vector<Workload> suite_;
  std::uint64_t start_ns_ = 0;
  int workers_ = 1;  ///< executor worker count

  /// Eval plans shared across jobs; it locks for itself.
  PlanCache plans_;

  WakePipe wake_;
  std::atomic<bool> shutdown_requested_{false};

  mutable std::mutex mutex_;
  std::condition_variable executor_cv_;
  JobQueue queue_ FP8Q_GUARDED_BY(mutex_);
  /// Every live job plus at most kMaxTerminalJobs terminal ones, by id.
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ FP8Q_GUARDED_BY(mutex_);
  std::uint64_t next_job_id_ FP8Q_GUARDED_BY(mutex_) = 1;
  std::size_t active_jobs_ FP8Q_GUARDED_BY(mutex_) = 0;
  bool drain_mode_ FP8Q_GUARDED_BY(mutex_) = false;
  std::size_t executors_done_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::vector<WorkerSlot> slots_ FP8Q_GUARDED_BY(mutex_);
  std::uint64_t submitted_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t cancelled_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t expired_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ FP8Q_GUARDED_BY(mutex_) = 0;
  LocalHistogram job_wall_ns_ FP8Q_GUARDED_BY(mutex_);
  LocalHistogram queue_wait_ns_ FP8Q_GUARDED_BY(mutex_);

  std::vector<std::thread> executors_;
};

}  // namespace fp8q::service
