// The tanh kernel on all 2^32 floats (nn/tanh.h, docs/KERNELS.md), run by
// `cmake --build <dir> --target check_tanh_exhaustive`:
//
//   * every tier against the scalar replica, where any mismatch fails
//     (exit 1);
//   * the replica against the host libm's std::tanh(float), reported only:
//     the count is 0 where libm's tanhf is fdlibm's (glibc), and says how
//     far another libm's outputs would move from the replica's.
//
// The 2^16 blocks of 2^16 bit patterns run as parallel_run units
// (FP8Q_NUM_THREADS sets the thread count); counts are summed in block
// order.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/parallel.h"
#include "nn/tanh.h"

namespace {

using namespace fp8q;

constexpr std::int64_t kBlocks = 1 << 16;
constexpr std::int64_t kBlock = 1 << 16;
constexpr IsaTier kVectorTiers[] = {IsaTier::kBatched, IsaTier::kNative, IsaTier::kWide};
constexpr int kNumVectorTiers = static_cast<int>(std::size(kVectorTiers));

struct BlockResult {
  std::uint64_t tier_mismatches[kNumVectorTiers] = {};
  std::uint64_t libm_mismatches = 0;
  std::int64_t first_libm_mismatch = -1;  // bit pattern, -1 if none
};

BlockResult check_block(std::int64_t block) {
  BlockResult r;
  std::vector<float> in(kBlock);
  for (std::int64_t j = 0; j < kBlock; ++j) {
    in[j] = std::bit_cast<float>(static_cast<std::uint32_t>(block * kBlock + j));
  }
  std::vector<float> want = in;
  tanh_kernel(IsaTier::kScalar)(want.data(), kBlock);
  for (std::int64_t j = 0; j < kBlock; ++j) {
    if (std::bit_cast<std::uint32_t>(std::tanh(in[j])) != std::bit_cast<std::uint32_t>(want[j])) {
      if (r.libm_mismatches++ == 0) r.first_libm_mismatch = block * kBlock + j;
    }
  }
  for (int t = 0; t < kNumVectorTiers; ++t) {
    std::vector<float> got = in;
    tanh_kernel(kVectorTiers[t])(got.data(), kBlock);
    for (std::int64_t j = 0; j < kBlock; ++j) {
      if (std::bit_cast<std::uint32_t>(got[j]) != std::bit_cast<std::uint32_t>(want[j])) {
        ++r.tier_mismatches[t];
      }
    }
  }
  return r;
}

}  // namespace

int main() {
  std::vector<BlockResult> blocks(kBlocks);
  parallel_run(kBlocks, [&](std::int64_t b) { blocks[b] = check_block(b); });

  BlockResult total;
  for (const BlockResult& b : blocks) {
    for (int t = 0; t < kNumVectorTiers; ++t) total.tier_mismatches[t] += b.tier_mismatches[t];
    if (total.first_libm_mismatch < 0) total.first_libm_mismatch = b.first_libm_mismatch;
    total.libm_mismatches += b.libm_mismatches;
  }
  std::printf("tanh on all 2^32 floats (%s dispatch available, %d threads)\n", isa_label(),
              num_threads());
  for (int t = 0; t < kNumVectorTiers; ++t) {
    std::printf("  %-8s vs replica:    %llu mismatches\n", to_string(kVectorTiers[t]),
                static_cast<unsigned long long>(total.tier_mismatches[t]));
  }
  std::printf("  replica  vs std::tanh:  %llu mismatches (informative)",
              static_cast<unsigned long long>(total.libm_mismatches));
  if (total.first_libm_mismatch >= 0) {
    std::printf(", first at bits 0x%08llx",
                static_cast<unsigned long long>(total.first_libm_mismatch));
  }
  std::printf("\n");
  bool ok = true;
  for (const std::uint64_t mismatches : total.tier_mismatches) ok = ok && mismatches == 0;
  std::printf("check_tanh_exhaustive: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
