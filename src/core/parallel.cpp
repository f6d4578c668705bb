#include "core/parallel.h"

#include <algorithm>
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

/// Set while a thread is executing region tasks (worker, or a dispatcher
/// draining its own open stream): nested parallel calls go inline.
thread_local bool tls_in_region = false;

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

/// The pool's one lock: it guards the workers, the open streams and every
/// stream's keys. No unit runs under it.
std::mutex g_mutex;

using UnitFn = std::function<std::vector<std::int64_t>(std::int64_t)>;

/// One parallel_stream call: the ready keys, the units in flight and the
/// smallest failing key, plus the dispatcher's observation context, which
/// each unit runs under on whichever thread takes it.
struct Stream {
  Stream(std::vector<std::int64_t> keys, const UnitFn& unit)
      : fn(unit),
        traced(trace_enabled()),
        parent(traced ? current_span_id() : 0),
        domain(current_counter_domain()),
        ready(std::greater<>{}, std::move(keys)) {}

  /// Runs one unit under the dispatcher's CounterDomain (obs/domain.h), so
  /// a job's counters and stages stay exact on every thread. Units cross
  /// threads, so the trace parent (the innermost span open on the
  /// dispatching thread) is captured at construction and passed
  /// explicitly; see obs/trace.h.
  std::vector<std::int64_t> run(std::int64_t key) const {
    ScopedCounterDomain domain_scope(domain);
    if (!traced) return fn(key);
    TraceSpan span("parallel/task", parent);
    return fn(key);
  }

  const UnitFn& fn;
  const bool traced;
  const std::int64_t parent;
  CounterDomain* const domain;
  std::condition_variable cv;  ///< the dispatcher waits here
  std::priority_queue<std::int64_t, std::vector<std::int64_t>, std::greater<>> ready
      FP8Q_GUARDED_BY(g_mutex);
  int running FP8Q_GUARDED_BY(g_mutex) = 0;
  std::exception_ptr error FP8Q_GUARDED_BY(g_mutex);
  std::int64_t error_key FP8Q_GUARDED_BY(g_mutex) = 0;
};

/// The global pool (docs/THREADING.md, "Concurrent dispatchers"). Any
/// number of streams may be open on it, one per dispatching thread. Each
/// dispatcher drains its own stream, and an idle worker takes the smallest
/// ready key of the oldest open stream that has one. Each open stream's
/// dispatcher counts as one of the num_threads() threads, so with k streams
/// open only workers 0 .. num_threads()-k-1 take new units and the rest
/// sleep. Workers are spawned lazily, up to num_threads()-1, and joined
/// only at exit.
class ThreadPool {
 public:
  ThreadPool() = default;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  static ThreadPool& global() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() FP8Q_EXCLUDES(g_mutex) {
    std::vector<std::thread> workers;
    {
      std::lock_guard<std::mutex> lock(g_mutex);
      stop_ = true;
      workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& w : workers) w.join();
  }

  /// Runs `s` until no unit is ready or running, on the calling thread
  /// and, with `share`, on the workers as well; returns the smallest
  /// failing key's exception.
  std::exception_ptr drain(Stream& s, bool share) FP8Q_EXCLUDES(g_mutex) {
    std::unique_lock<std::mutex> lock(g_mutex);
    if (share) open(s);
    for (;;) {
      s.cv.wait(lock, [&s] { return !s.ready.empty() || s.running == 0; });
      if (s.ready.empty()) break;
      run_one(s, lock);
    }
    if (share) close(s);
    return s.error;
  }

 private:
  void open(Stream& s) FP8Q_REQUIRES(g_mutex) {
    for (int i = static_cast<int>(workers_.size()); i < num_threads() - 1; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
    open_.push_back(&s);
    tls_in_region = true;
    work_cv_.notify_all();
  }

  void close(Stream& s) FP8Q_REQUIRES(g_mutex) {
    open_.erase(std::find(open_.begin(), open_.end(), &s));
    tls_in_region = false;
    work_cv_.notify_all();  // one more worker may take units
  }

  /// Runs the smallest ready key of `s` on the calling thread, with
  /// `lock` released for the unit, then queues the keys it released.
  /// Catches the unit's exception.
  void run_one(Stream& s, std::unique_lock<std::mutex>& lock) FP8Q_REQUIRES(g_mutex) {
    const std::int64_t key = s.ready.top();
    s.ready.pop();
    ++s.running;
    lock.unlock();
    std::vector<std::int64_t> next;
    std::exception_ptr error;
    try {
      next = s.run(key);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    --s.running;
    for (const std::int64_t k : next) s.ready.push(k);
    if (error && (!s.error || key < s.error_key)) {
      s.error = error;
      s.error_key = key;
    }
    s.cv.notify_one();  // a key is ready, or the stream may be done
    if (!next.empty()) work_cv_.notify_all();
  }

  /// The stream worker `index` may take a unit from, or nullptr.
  Stream* next_stream(int index) FP8Q_REQUIRES(g_mutex) {
    if (index >= num_threads() - static_cast<int>(open_.size())) return nullptr;
    for (Stream* s : open_) {
      if (!s->ready.empty()) return s;
    }
    return nullptr;
  }

  void worker_loop(int index) FP8Q_EXCLUDES(g_mutex) {
    tls_in_region = true;
    std::unique_lock<std::mutex> lock(g_mutex);
    for (;;) {
      Stream* s = nullptr;
      work_cv_.wait(lock, [&] { return stop_ || (s = next_stream(index)) != nullptr; });
      if (stop_) return;
      run_one(*s, lock);
    }
  }

  std::condition_variable work_cv_;
  std::vector<Stream*> open_ FP8Q_GUARDED_BY(g_mutex);  ///< oldest first
  bool stop_ FP8Q_GUARDED_BY(g_mutex) = false;
  std::vector<std::thread> workers_ FP8Q_GUARDED_BY(g_mutex);
};

/// Runs a stream of `keys` to completion and rethrows the smallest failing
/// key's exception. Its units run on the calling thread alone, in exact
/// key order, when `alone` is set, at one thread and inside a region;
/// otherwise the stream is open on the pool while the caller drains it.
void run_stream(std::vector<std::int64_t> keys, const UnitFn& fn, bool alone) {
  Stream s(std::move(keys), fn);
  const bool share = !alone && num_threads() > 1 && !tls_in_region;
  if (std::exception_ptr error = ThreadPool::global().drain(s, share)) {
    std::rethrow_exception(error);
  }
}

}  // namespace

int hardware_threads() {
  static const int value = clamp_threads(static_cast<int>(std::thread::hardware_concurrency()));
  return value;
}

int num_threads() {
  const int override_n = g_thread_override.load(std::memory_order_relaxed);
  return override_n > 0 ? override_n : env_default_threads();
}

void set_num_threads(int n) {
  g_thread_override.store(n > 0 ? clamp_threads(n) : 0, std::memory_order_relaxed);
}

bool in_parallel_region() { return tls_in_region; }

void parallel_run(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  // One stream whose keys are all ready and release nothing.
  std::vector<std::int64_t> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), std::int64_t{0});
  const UnitFn unit = [&fn](std::int64_t i) {
    fn(i);
    return std::vector<std::int64_t>{};
  };
  run_stream(std::move(keys), unit, n == 1);
}

void parallel_stream(std::vector<std::int64_t> ready,
                     const std::function<std::vector<std::int64_t>(std::int64_t)>& fn) {
  run_stream(std::move(ready), fn, false);
}

}  // namespace fp8q
