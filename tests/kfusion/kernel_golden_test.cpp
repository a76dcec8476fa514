// Golden values for the TSDF integrate and raycast kernels.
//
// A fixed rendered sequence is fused and raycast at its ground-truth poses
// (no ICP: its SIMD reduction is not bit-exact against the scalar one, so
// tracking would make the poses backend-dependent). Each case pins the
// exact Kernel::kIntegrate / Kernel::kRaycast counts, a digest of every
// observed voxel's (tsdf bits, weight) and a digest of every vertex and
// normal map. The results depend on the build only through one fact: whether
// the SIMD backend fuses multiply-add (hm::simd::kHasFma; the scalar mirrors
// follow the backend, DESIGN.md §9). So each case pins one set of values per
// fma mode: AVX2 and NEON builds check the fused set, SSE4.1 and
// -DHM_SIMD=OFF builds the unfused one. The suite carries the "simd" label,
// so the -DHM_SIMD=OFF configure runs it too. Any kernel change that is
// meant to skip work without changing results must leave this file
// untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>

#include "common/simd.hpp"
#include "dataset/sequence.hpp"
#include "kfusion/preprocess.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/tsdf_volume.hpp"

namespace hm::kfusion {
namespace {

using hm::geometry::Intrinsics;
using hm::geometry::Vec3f;

/// FNV-1a over 32-bit words.
class Digest {
 public:
  void add(std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(float value) { add(std::bit_cast<std::uint32_t>(value)); }
  void add(Vec3f v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Pinned {
  std::uint64_t integrate_ops;
  std::uint64_t raycast_ops;
  std::uint64_t voxel_digest;
  std::uint64_t map_digest;
};

struct GoldenCase {
  int resolution;
  double mu;
  int compute_size_ratio;
  Pinned fused;
  Pinned unfused;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "res" << c.resolution << "_mu" << c.mu << "_csr" << c.compute_size_ratio;
}

constexpr std::size_t kFrames = 6;

const hm::dataset::RGBDSequence& sequence() {
  static const auto instance =
      hm::dataset::make_benchmark_sequence(kFrames, 80, 60, nullptr, false);
  return *instance;
}

class KernelGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(KernelGolden, CountsAndDigestsArePinned) {
  const GoldenCase& param = GetParam();
  const Pinned& golden = hm::simd::kHasFma ? param.fused : param.unfused;
  const Intrinsics camera =
      sequence().intrinsics().scaled(param.compute_size_ratio);
  TsdfVolume volume(param.resolution, 4.8);
  KernelStats preprocess_stats, integrate_stats, raycast_stats;
  Digest maps;
  for (std::size_t i = 0; i < sequence().frame_count(); ++i) {
    const auto& frame = sequence().frame(i);
    const DepthImage depth = downsample_depth(
        frame.depth, param.compute_size_ratio, preprocess_stats);
    volume.integrate(depth, camera, frame.ground_truth_pose, param.mu,
                     integrate_stats);
    const RaycastResult result =
        raycast(volume, camera, frame.ground_truth_pose, param.mu, {},
                raycast_stats);
    for (int v = 0; v < camera.height; ++v) {
      for (int u = 0; u < camera.width; ++u) {
        maps.add(result.vertices.at(u, v));
        maps.add(result.normals.at(u, v));
      }
    }
  }

  Digest voxels;
  std::uint32_t index = 0;
  for (int z = 0; z < param.resolution; ++z) {
    for (int y = 0; y < param.resolution; ++y) {
      for (int x = 0; x < param.resolution; ++x, ++index) {
        const float weight = volume.weight_at(x, y, z);
        if (!(weight > 0.0f)) continue;
        voxels.add(index);
        voxels.add(volume.tsdf_at(x, y, z));
        voxels.add(weight);
      }
    }
  }

  EXPECT_EQ(integrate_stats.count(Kernel::kIntegrate), golden.integrate_ops);
  EXPECT_EQ(raycast_stats.count(Kernel::kRaycast), golden.raycast_ops);
  EXPECT_EQ(voxels.value(), golden.voxel_digest);
  EXPECT_EQ(maps.value(), golden.map_digest);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KernelGolden,
    ::testing::Values(
        GoldenCase{64, 0.025, 1,
                   {861322ull, 2780535ull, 0xcee5cab542b714e7ull, 0x9467d6924a01ecd8ull},
                   {861322ull, 2780536ull, 0x750b22c0a31d5622ull, 0xe127f3d9c778feb8ull}},
        GoldenCase{64, 0.025, 4,
                   {759943ull, 172192ull, 0x0681eae28260ccd4ull, 0xe8c4e429415555b2ull},
                   {759943ull, 172192ull, 0xe829ea48f30d6b22ull, 0xeef89472e4a68e46ull}},
        GoldenCase{64, 0.4, 1,
                   {902400ull, 1231505ull, 0xee806aa8218c2c6dull, 0x9d29f49fc94ef69aull},
                   {902400ull, 1231505ull, 0x1a2f847ef6aa640cull, 0xab2b30d54703b013ull}},
        GoldenCase{64, 0.4, 4,
                   {854883ull, 62908ull, 0x0636032a075e0411ull, 0x13d70a7254af81d6ull},
                   {854883ull, 62908ull, 0x319b5f4783fe8a1eull, 0x3a57be732f7a7894ull}},
        GoldenCase{256, 0.025, 1,
                   {53805603ull, 6594520ull, 0xac91979e64d64783ull, 0x881f2ce6844d250cull},
                   {53805603ull, 6594519ull, 0x2241533831b23518ull, 0xa71ff4b40ef0a4ecull}},
        GoldenCase{256, 0.025, 4,
                   {47778996ull, 314451ull, 0x3ff372dce2574faaull, 0x73455cfb8d9b1040ull},
                   {47778996ull, 314451ull, 0xce1ed72677f22b4eull, 0x8603ec3379c1ac20ull}},
        GoldenCase{256, 0.4, 1,
                   {57170944ull, 2574833ull, 0x0564f048b985c4aeull, 0x39137ae4bdfd87edull},
                   {57170944ull, 2574833ull, 0x1da3443f59d09be4ull, 0x93b0e4200d07bf2dull}},
        GoldenCase{256, 0.4, 4,
                   {53973952ull, 114181ull, 0xfce8fa535206a156ull, 0xc31b728fda704631ull},
                   {53973952ull, 114181ull, 0x28b62e880b06d273ull, 0xe84ef055e5515e5bull}}));

}  // namespace
}  // namespace hm::kfusion
