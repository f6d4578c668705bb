// Memory accounting (src/obs/memory.h): peak-RSS sampling and the
// tensor-allocation tally fed by Tensor's allocating constructors
// (tensor/tensor.cpp). The key contracts: peak RSS is monotone and
// reflects real growth; copies count as allocation traffic; moves do not.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "obs/memory.h"
#include "tensor/tensor.h"

namespace fp8q {
namespace {

AllocCounterSnapshot delta_of(const AllocCounterSnapshot& before) {
  return alloc_counters_snapshot().since(before);
}

TEST(Memory, PeakRssIsNonzeroAndMonotone) {
  const std::uint64_t before = peak_rss_bytes();
  ASSERT_GT(before, 0u);  // Linux getrusage is always available here

  // Touch 48 MiB so the high-water mark must move if it was below that.
  constexpr std::size_t kBytes = 48u << 20;
  std::vector<char> block(kBytes);
  std::memset(block.data(), 0x5a, block.size());
  const std::uint64_t after = peak_rss_bytes();
  EXPECT_GE(after, before);
  EXPECT_GE(after, kBytes);
  // Freeing the block never lowers the peak.
  block.clear();
  block.shrink_to_fit();
  EXPECT_GE(peak_rss_bytes(), after);
}

TEST(Memory, SnapshotDeltaSaturatesAtZero) {
  AllocCounterSnapshot earlier{100, 2};
  AllocCounterSnapshot later{300, 5};
  EXPECT_EQ(later.since(earlier), (AllocCounterSnapshot{200, 3}));
  // After a reset in between, "later" may be smaller: clamp, don't wrap.
  EXPECT_EQ(earlier.since(later), (AllocCounterSnapshot{0, 0}));
}

TEST(Memory, TensorConstructorsAreCounted) {
  const auto before = alloc_counters_snapshot();

  Tensor zeros({16, 8});
  auto d = delta_of(before);
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.bytes, 16u * 8u * sizeof(float));

  Tensor filled({32}, 1.5f);
  Tensor wrapped({4}, std::vector<float>{1.f, 2.f, 3.f, 4.f});
  d = delta_of(before);
  EXPECT_EQ(d.allocs, 3u);
  EXPECT_EQ(d.bytes, (16u * 8u + 32u + 4u) * sizeof(float));

  // Default-constructed and zero-element tensors hold no payload.
  Tensor empty;
  Tensor zero_elems({0});
  EXPECT_EQ(delta_of(before).allocs, 3u);
}

TEST(Memory, CopiesCountMovesDoNot) {
  Tensor src({64});
  const auto before = alloc_counters_snapshot();

  Tensor copied = src;  // copy ctor: new payload
  auto d = delta_of(before);
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.bytes, 64u * sizeof(float));

  Tensor assigned;
  assigned = src;  // copy assign: new payload
  EXPECT_EQ(delta_of(before).allocs, 2u);

  Tensor moved = std::move(copied);         // move ctor: ownership transfer
  Tensor move_assigned;
  move_assigned = std::move(assigned);      // move assign: ownership transfer
  EXPECT_EQ(delta_of(before).allocs, 2u);   // unchanged
  EXPECT_EQ(moved.numel(), 64);
  EXPECT_EQ(move_assigned.numel(), 64);
}

TEST(Memory, ReportDeltaPatternMatchesScopedStageUsage) {
  // The per-stage accounting in obs/report.cpp is snapshot -> work ->
  // since(); verify the pattern observes exactly the work in between.
  const auto start = alloc_counters_snapshot();
  { Tensor scratch({1024}); }
  { Tensor scratch2({1024}); }
  const auto d = delta_of(start);
  EXPECT_EQ(d.allocs, 2u);
  EXPECT_EQ(d.bytes, 2u * 1024u * sizeof(float));
}

}  // namespace
}  // namespace fp8q
