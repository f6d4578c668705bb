// Scoped tracing: RAII wall-clock spans (docs/OBSERVABILITY.md).
//
// A TraceSpan measures one named region -- a tuner stage, one op's
// quantize-at-the-boundary, one parallel_run unit -- and on destruction
// appends a SpanRecord (name, start, duration, thread, parent) to the
// calling thread's buffer. Buffers are aggregated by trace_snapshot().
//
// Parent linkage is per thread: a span's parent is the innermost span
// still open on the same thread when it was created. Regions dispatched to
// pool workers cross threads, so the dispatching site captures
// current_span_id() *before* the fan-out and passes it as an explicit
// parent (core/parallel.cpp does this for per-unit spans); the span tree
// therefore stays connected across the thread pool.
//
// Cost when disabled (FP8Q_TRACE unset/0 and no set_trace_enabled(true)):
// the constructor is one relaxed atomic load plus a branch, and nothing is
// recorded or allocated. Hot sites pass string literals so no name is
// built when tracing is off.
//
// Tracing is an inspection tool, not a result: span timings are
// nondeterministic (wall clock), only the nesting structure is stable.
// Buffers are bounded (kMaxSpansPerThread); spans beyond the cap are
// dropped and counted in trace_dropped() rather than silently lost.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fp8q {

/// Upper bound on recorded spans per thread; see trace_dropped().
inline constexpr std::size_t kMaxSpansPerThread = 1 << 20;

/// One completed span. `parent` is -1 for roots. `thread_id` is a small
/// dense index assigned per recording thread (not the OS tid).
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;     ///< steady_clock, process-relative
  std::uint64_t duration_ns = 0;  ///< wall time between ctor and dtor
  std::uint32_t thread_id = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
};

/// Monotonic nanosecond timestamp (steady_clock). The observability layer
/// owns the process's wall clocks: library code outside src/obs/ must take
/// timing through this helper rather than <chrono> directly, so every
/// nondeterministic clock read is auditable in one place (the `determinism`
/// rule of tools/fp8q_lint.cpp enforces this).
[[nodiscard]] std::uint64_t obs_now_ns();

/// True when spans record. Defaults to the FP8Q_TRACE environment variable
/// (truthy = on); set_trace_enabled overrides it.
[[nodiscard]] bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Id of the innermost span currently open on the calling thread, or -1.
/// Capture this before dispatching work to other threads and pass it as
/// the explicit parent of the spans they open.
[[nodiscard]] std::int64_t current_span_id();

/// RAII span. Does nothing when tracing is disabled at construction time.
class TraceSpan {
 public:
  /// Parent defaults to the innermost open span on this thread.
  explicit TraceSpan(std::string_view name);
  /// Explicit parent (for spans whose logical parent ran on another
  /// thread); pass -1 for a root span.
  TraceSpan(std::string_view name, std::int64_t parent);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// -1 when tracing was disabled at construction.
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
  std::uint64_t start_ns_ = 0;
  std::string name_;
};

/// All completed spans from every thread, sorted by start time. Safe to
/// call while other threads are still recording (their in-flight spans are
/// simply not included yet).
[[nodiscard]] std::vector<SpanRecord> trace_snapshot();

/// Number of spans dropped because a thread hit kMaxSpansPerThread.
[[nodiscard]] std::uint64_t trace_dropped();

/// Discards all recorded spans (and the dropped-span count). Call only
/// while no traced work is running.
void trace_reset();

}  // namespace fp8q
