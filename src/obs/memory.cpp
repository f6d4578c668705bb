#include "obs/memory.h"

#include "obs/domain.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define FP8Q_HAVE_GETRUSAGE 1
#endif

namespace fp8q {

void alloc_counter_add(std::uint64_t bytes) {
  if (bytes != 0) current_counter_domain()->add_alloc(bytes);
}

AllocCounterSnapshot alloc_counters_snapshot() {
  return current_counter_domain()->alloc_counters();
}

void alloc_counters_reset() { current_counter_domain()->reset_alloc_counters(); }

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
