#include "core/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <queue>
#include <thread>

#include "core/thread_annotations.h"
#include "obs/domain.h"
#include "obs/trace.h"

namespace fp8q {

namespace {

/// Set while a thread is executing region tasks (worker, or the caller
/// participating in its own region): nested parallel calls go inline.
thread_local bool tls_in_region = false;

/// The calling thread's arena binding (ScopedArenaBinding), or nullptr.
thread_local ParallelArena* tls_arena = nullptr;

constexpr int kMaxThreads = 256;

int clamp_threads(int n) {
  if (n < 1) return 1;
  return n < kMaxThreads ? n : kMaxThreads;
}

/// FP8Q_NUM_THREADS, or hardware_threads() when unset/invalid. Read once.
int env_default_threads() {
  static const int value = [] {
    if (const char* env = std::getenv("FP8Q_NUM_THREADS")) {
      const int n = std::atoi(env);
      if (n > 0) return clamp_threads(n);
    }
    return hardware_threads();
  }();
  return value;
}

/// set_num_threads() override; 0 means "no override, use the default".
std::atomic<int> g_thread_override{0};

/// One-region-at-a-time pool. Concurrent top-level regions (from distinct
/// user threads) serialize on run_mutex_; nested regions never reach the
/// pool (they run inline via tls_in_region). The default-constructed
/// global pool tracks num_threads()-1 workers; arena pools
/// (ParallelArena) construct with a fixed worker count. A region is one
/// drain function that every worker and the calling thread run once: the
/// UnitStream below, which does all the scheduling and catches every
/// unit's exception.
///
/// Obs-context propagation: each region publishes the dispatching
/// thread's CounterDomain (obs/domain.h) with the job state, and every
/// worker binds it around its drain -- so a job running under a scoped
/// observation domain keeps its counters exact, and its stages land in
/// its report, when it fans out across the pool.
class ThreadPool {
 public:
  /// Global-sized pool: resizes to num_threads()-1 at each region.
  ThreadPool() = default;
  /// Fixed-size pool with exactly `workers` workers (may be 0).
  explicit ThreadPool(int workers) : fixed_workers_(workers < 0 ? 0 : workers) {}

  static ThreadPool& global() {
    static ThreadPool pool;
    return pool;
  }

  /// Runs `drain` once on every worker and once on the calling thread;
  /// returns after all of them have returned. `drain` must not throw.
  void run(const std::function<void()>& drain) FP8Q_EXCLUDES(run_mutex_) {
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    resize_locked(fixed_workers_ >= 0 ? fixed_workers_ : num_threads() - 1);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_fn_ = &drain;
      job_domain_ = current_counter_domain();
      active_ = static_cast<int>(workers_.size());
      ++job_id_;
    }
    work_cv_.notify_all();

    // The caller participates in its own region.
    tls_in_region = true;
    drain();
    tls_in_region = false;

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    job_fn_ = nullptr;
  }

  ~ThreadPool() {
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    resize_locked(0);
  }

 private:
  /// `seen` starts at the job_id_ current when the worker was spawned:
  /// job_id_ persists across resize_locked(), so a fresh worker must not
  /// treat jobs published before its creation as pending (it would pass
  /// the wait predicate with job_fn_ == nullptr and decrement active_ for
  /// a job it never joined).
  void worker_loop(std::uint64_t seen) {
    tls_in_region = true;
    for (;;) {
      const std::function<void()>* fn = nullptr;
      CounterDomain* domain = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return stop_ || job_id_ != seen; });
        if (stop_) return;
        seen = job_id_;
        fn = job_fn_;
        domain = job_domain_;
      }
      if (fn) {
        // Adopt the dispatcher's observation domain (the root when it
        // bound none) for this region.
        ScopedCounterDomain domain_scope(domain);
        (*fn)();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--active_ == 0) done_cv_.notify_all();
      }
    }
  }

  /// Adjusts the worker count; requires run_mutex_ held and no active job.
  void resize_locked(int target) FP8Q_REQUIRES(run_mutex_) {
    if (static_cast<int>(workers_.size()) == target) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = false;
    }
    workers_.reserve(static_cast<std::size_t>(target));
    for (int i = 0; i < target; ++i) {
      workers_.emplace_back([this, cur = job_id_] { worker_loop(cur); });
    }
  }

  std::mutex run_mutex_ FP8Q_ACQUIRED_BEFORE(mutex_);  ///< serializes top-level regions
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_ FP8Q_GUARDED_BY(run_mutex_);
  bool stop_ FP8Q_GUARDED_BY(mutex_) = false;

  // Current region.
  const std::function<void()>* job_fn_ FP8Q_GUARDED_BY(mutex_) = nullptr;
  CounterDomain* job_domain_ FP8Q_GUARDED_BY(mutex_) = nullptr;
  int active_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::uint64_t job_id_ FP8Q_GUARDED_BY(mutex_) = 0;

  /// -1 = track num_threads()-1 (the global pool); >= 0 = fixed size.
  const int fixed_workers_ = -1;
};

}  // namespace

int hardware_threads() {
  static const int value = clamp_threads(static_cast<int>(std::thread::hardware_concurrency()));
  return value;
}

int num_threads() {
  if (const ParallelArena* arena = tls_arena) return arena->budget();
  const int override_n = g_thread_override.load(std::memory_order_relaxed);
  return override_n > 0 ? override_n : env_default_threads();
}

void set_num_threads(int n) {
  g_thread_override.store(n > 0 ? clamp_threads(n) : 0, std::memory_order_relaxed);
}

bool in_parallel_region() { return tls_in_region; }

/// A fixed pool of budget-1 workers, spawned lazily by the pool itself at
/// the first region that fans out (a budget-1 arena never constructs one).
struct ParallelArena::Impl {
  ThreadPool pool;

  explicit Impl(int workers) : pool(workers) {}
};

ParallelArena::ParallelArena(int budget) : budget_(clamp_threads(budget)) {
  if (budget_ > 1) impl_ = std::make_unique<Impl>(budget_ - 1);
}

ParallelArena::~ParallelArena() = default;

/// Runs one region on the arena's own pool (friend of ParallelArena).
void arena_run_region(ParallelArena& arena, const std::function<void()>& drain) {
  arena.impl_->pool.run(drain);
}

ParallelArena* current_arena() { return tls_arena; }

ScopedArenaBinding::ScopedArenaBinding(ParallelArena* arena) : prev_(tls_arena) {
  tls_arena = arena;
}

ScopedArenaBinding::~ScopedArenaBinding() { tls_arena = prev_; }

namespace {

/// One parallel_stream call: the ready keys, the units in flight and the
/// smallest failing key. Every thread of the region drains it.
class UnitStream {
 public:
  using UnitFn = std::function<std::vector<std::int64_t>(std::int64_t)>;

  /// `releases` false promises that every unit returns no keys.
  UnitStream(std::vector<std::int64_t> ready, const UnitFn& fn, bool releases)
      : fn_(fn),
        traced_(trace_enabled()),
        releases_(releases),
        parent_(traced_ ? current_span_id() : 0),
        ready_(std::greater<>{}, std::move(ready)) {}

  /// Runs the smallest ready unit until none is ready or running. While
  /// units are in flight, an idle thread waits for them to release more,
  /// unless none can: then it leaves, and the region's barrier waits for
  /// the units still running. Catches every unit's exception, so it never
  /// throws one.
  void drain() FP8Q_EXCLUDES(mutex_) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return !ready_.empty() || running_ == 0 || !releases_; });
      if (ready_.empty()) return;
      const std::int64_t key = ready_.top();
      ready_.pop();
      ++running_;
      lock.unlock();
      std::vector<std::int64_t> next;
      std::exception_ptr error;
      try {
        next = run(key);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --running_;
      for (const std::int64_t k : next) ready_.push(k);
      if (error && (!error_ || key < error_key_)) {
        error_ = error;
        error_key_ = key;
      }
      if (ready_.empty() && running_ == 0) {
        cv_.notify_all();  // the stream is done
      } else {
        // This thread takes one released key itself.
        for (std::size_t i = 1; i < next.size(); ++i) cv_.notify_one();
      }
    }
  }

  /// After every drain has returned.
  void rethrow() FP8Q_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  std::vector<std::int64_t> run(std::int64_t key) const {
    if (!traced_) return fn_(key);
    // Units cross threads when the pool is engaged, so the logical parent
    // (the innermost span open on the *dispatching* thread) is captured at
    // construction and passed explicitly; see obs/trace.h.
    TraceSpan span("parallel/task", parent_);
    return fn_(key);
  }

  const UnitFn& fn_;
  const bool traced_;
  const bool releases_;
  const std::int64_t parent_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>> ready_
      FP8Q_GUARDED_BY(mutex_);
  int running_ FP8Q_GUARDED_BY(mutex_) = 0;
  std::exception_ptr error_ FP8Q_GUARDED_BY(mutex_);
  std::int64_t error_key_ FP8Q_GUARDED_BY(mutex_) = 0;
};

/// Drains `stream` on the calling thread alone when `alone` is set, at one
/// thread and inside a region (units then run in exact key order), else
/// on every thread of the bound arena or the global pool; then rethrows
/// the smallest failing key's exception.
void run_stream(UnitStream& stream, bool alone) {
  if (alone || num_threads() == 1 || tls_in_region) {
    stream.drain();
  } else if (ParallelArena* arena = tls_arena) {
    // num_threads() > 1 here, so a bound arena has budget > 1 and owns a
    // pool.
    arena_run_region(*arena, [&stream] { stream.drain(); });
  } else {
    ThreadPool::global().run([&stream] { stream.drain(); });
  }
  stream.rethrow();
}

}  // namespace

void parallel_run(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  // One stream whose keys are all ready and release nothing.
  std::vector<std::int64_t> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), std::int64_t{0});
  const UnitStream::UnitFn unit = [&fn](std::int64_t i) {
    fn(i);
    return std::vector<std::int64_t>{};
  };
  UnitStream stream(std::move(keys), unit, false);
  run_stream(stream, n == 1);
}

void parallel_stream(std::vector<std::int64_t> ready,
                     const std::function<std::vector<std::int64_t>(std::int64_t)>& fn) {
  UnitStream stream(std::move(ready), fn, true);
  run_stream(stream, false);
}

}  // namespace fp8q
