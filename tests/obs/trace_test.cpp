// Trace span semantics (src/obs/trace.h): same-thread nesting gives
// parent linkage, pool-dispatched unit spans link to the dispatching
// span, and a disabled tracer records nothing.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/parallel.h"
#include "obs/trace.h"

namespace fp8q {
namespace {

struct TraceGuard {
  ~TraceGuard() {
    set_num_threads(0);
    set_trace_enabled(false);
    trace_reset();
  }
};

/// Records with a given name, in snapshot (start-time) order.
std::vector<SpanRecord> spans_named(const std::vector<SpanRecord>& all,
                                    std::string_view name) {
  std::vector<SpanRecord> out;
  for (const auto& s : all) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TEST(Trace, NestedSpansLinkToEnclosingSpan) {
  TraceGuard guard;
  set_trace_enabled(true);
  trace_reset();

  EXPECT_EQ(current_span_id(), -1);
  {
    TraceSpan outer("outer");
    EXPECT_EQ(current_span_id(), outer.id());
    {
      TraceSpan inner("inner");
      EXPECT_EQ(current_span_id(), inner.id());
    }
    EXPECT_EQ(current_span_id(), outer.id());
  }
  EXPECT_EQ(current_span_id(), -1);

  const auto all = trace_snapshot();
  const auto outer = spans_named(all, "outer");
  const auto inner = spans_named(all, "inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].parent, -1);
  EXPECT_EQ(inner[0].parent, outer[0].id);
  EXPECT_GE(outer[0].duration_ns, inner[0].duration_ns);
}

TEST(Trace, ChunkSpansLinkToDispatchingSpanAcrossThreads) {
  TraceGuard guard;
  set_trace_enabled(true);
  set_num_threads(8);
  trace_reset();

  std::int64_t root_id = -1;
  {
    TraceSpan root("root");
    root_id = root.id();
    parallel_run(64, [](std::int64_t) {});
  }
  ASSERT_GE(root_id, 0);

  const auto chunks = spans_named(trace_snapshot(), "parallel/task");
  // 8 threads, one span per unit.
  ASSERT_EQ(chunks.size(), 64u);
  std::set<std::int64_t> ids;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.parent, root_id);
    ids.insert(c.id);
  }
  EXPECT_EQ(ids.size(), chunks.size());  // ids are unique
}

TEST(Trace, SerialRegionStillEmitsChunkSpans) {
  TraceGuard guard;
  set_trace_enabled(true);
  set_num_threads(1);
  trace_reset();

  parallel_run(3, [](std::int64_t) {});
  const auto chunks = spans_named(trace_snapshot(), "parallel/task");
  EXPECT_EQ(chunks.size(), 3u);
  for (const auto& c : chunks) EXPECT_EQ(c.parent, -1);
}

TEST(Trace, DisabledRecordsNothing) {
  TraceGuard guard;
  set_trace_enabled(false);
  trace_reset();
  {
    TraceSpan span("ghost");
    EXPECT_EQ(span.id(), -1);
    EXPECT_EQ(current_span_id(), -1);
  }
  parallel_run(4, [](std::int64_t) {});
  EXPECT_TRUE(trace_snapshot().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST(Trace, ResetDiscardsRecordedSpans) {
  TraceGuard guard;
  set_trace_enabled(true);
  trace_reset();
  { TraceSpan span("tmp"); }
  EXPECT_FALSE(trace_snapshot().empty());
  trace_reset();
  EXPECT_TRUE(trace_snapshot().empty());
}

}  // namespace
}  // namespace fp8q
