#include "obs/memory.h"

#include <atomic>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define FP8Q_HAVE_GETRUSAGE 1
#endif

namespace fp8q {

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_count{0};
thread_local AllocSink* tls_alloc_sink = nullptr;
}  // namespace

void alloc_counter_add(std::uint64_t bytes) {
  if (bytes == 0) return;
  if (AllocSink* sink = tls_alloc_sink) {
    sink->bytes.fetch_add(bytes, std::memory_order_relaxed);
    sink->allocs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

AllocCounterSnapshot alloc_counters_snapshot() {
  if (const AllocSink* sink = tls_alloc_sink) return sink->snapshot();
  AllocCounterSnapshot snap;
  snap.bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  snap.allocs = g_alloc_count.load(std::memory_order_relaxed);
  return snap;
}

void alloc_counters_reset() {
  if (AllocSink* sink = tls_alloc_sink) {
    sink->reset();
    return;
  }
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);
}

AllocSink* current_alloc_sink() { return tls_alloc_sink; }

AllocSink* set_thread_alloc_sink(AllocSink* sink) {
  AllocSink* previous = tls_alloc_sink;
  tls_alloc_sink = sink;
  return previous;
}

void alloc_counter_merge(const AllocCounterSnapshot& delta) {
  if (delta.bytes == 0 && delta.allocs == 0) return;
  if (AllocSink* sink = tls_alloc_sink) {
    sink->bytes.fetch_add(delta.bytes, std::memory_order_relaxed);
    sink->allocs.fetch_add(delta.allocs, std::memory_order_relaxed);
    return;
  }
  g_alloc_bytes.fetch_add(delta.bytes, std::memory_order_relaxed);
  g_alloc_count.fetch_add(delta.allocs, std::memory_order_relaxed);
}

std::uint64_t peak_rss_bytes() {
#ifdef FP8Q_HAVE_GETRUSAGE
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#ifdef __APPLE__
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace fp8q
