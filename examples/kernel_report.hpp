// Per-kernel op-count report for the SLAM example and bench binaries.
// Split from observability.hpp so drivers that report no kernel work
// (hm_tune, hm_serve) share the --trace/--metrics plumbing without the
// kernel layer's headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "kfusion/kernel_stats.hpp"

namespace hm::examples {

/// Prints one run's per-kernel op counts (the paper's counted-work runtime
/// substrate) as an end-of-run report block.
inline void print_kernel_stats(const char* label,
                               const hm::kfusion::KernelStats& stats) {
  std::printf("%s kernel ops (total %llu):\n", label,
              static_cast<unsigned long long>(stats.total()));
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(hm::kfusion::Kernel::kCount); ++k) {
    const std::uint64_t ops = stats.count(static_cast<hm::kfusion::Kernel>(k));
    if (ops == 0) continue;
    std::printf("  %-14.*s %llu\n",
                static_cast<int>(hm::kfusion::kKernelNames[k].size()),
                hm::kfusion::kKernelNames[k].data(),
                static_cast<unsigned long long>(ops));
  }
}

}  // namespace hm::examples
