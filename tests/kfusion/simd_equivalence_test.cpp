// Scalar-vs-SIMD equivalence for the three vectorized kernels (DESIGN.md §9).
//
// Bilateral filter and TSDF integrate promise BIT-EXACT agreement
// between KernelPath::kScalar and KernelPath::kSimd — the scalar path is a
// lane-for-lane mirror of the vector path (same fused-or-not multiply-adds,
// same exp polynomial, same rounding), so these tests compare with EXPECT_EQ,
// not tolerances, and include op-counter checksums. ICP's SIMD path flushes
// float lane accumulators per row into the double normal equations, which
// reorders the summation: gate decisions (tested/matched counts) stay
// bit-identical, the accumulated equations and the resulting pose agree to a
// documented tolerance.
//
// Every image/volume size here is deliberately NOT a multiple of the vector
// width (321x241, 81x61, resolution 52) so the ragged-tail scalar fallback
// inside each SIMD kernel is exercised alongside the full-vector body.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "kfusion/icp.hpp"
#include "kfusion/preprocess.hpp"
#include "kfusion/pyramid.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/tsdf_volume.hpp"

namespace hm::kfusion {
namespace {

using hm::geometry::Intrinsics;
using hm::geometry::SE3;
using hm::geometry::Vec3d;
using hm::geometry::Vec3f;

/// Deterministic depth image: smooth surface + noise + invalid holes.
DepthImage synthetic_depth(int width, int height, std::uint64_t seed) {
  hm::common::Rng rng(seed);
  DepthImage depth(width, height, 0.0f);
  for (int v = 0; v < height; ++v) {
    for (int u = 0; u < width; ++u) {
      const double z = 2.0 + 0.4 * std::sin(0.05 * u) + 0.3 * std::cos(0.07 * v) +
                       rng.normal(0.0, 0.01);
      const bool hole = rng.uniform(0.0, 1.0) < 0.05;
      depth.at(u, v) = hole ? 0.0f : static_cast<float>(z);
    }
  }
  return depth;
}

void expect_images_bitwise_equal(const DepthImage& a, const DepthImage& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int v = 0; v < a.height(); ++v) {
    const float* ra = a.row(v);
    const float* rb = b.row(v);
    for (int u = 0; u < a.width(); ++u) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(ra[u]),
                std::bit_cast<std::uint32_t>(rb[u]))
          << "(" << u << ", " << v << "): " << ra[u] << " vs " << rb[u];
    }
  }
}

// --- Bilateral filter ----------------------------------------------------

class BilateralEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BilateralEquivalence, ScalarAndSimdBitExact) {
  const auto [width, height] = GetParam();
  const DepthImage input = synthetic_depth(width, height, 11);
  KernelStats scalar_stats, simd_stats;
  const DepthImage scalar_out = bilateral_filter(
      input, {}, scalar_stats, nullptr, KernelPath::kScalar);
  const DepthImage simd_out = bilateral_filter(
      input, {}, simd_stats, nullptr, KernelPath::kSimd);
  expect_images_bitwise_equal(scalar_out, simd_out);
  // Op-counter checksum: both paths must count the same filter taps.
  EXPECT_EQ(scalar_stats.count(Kernel::kBilateral),
            simd_stats.count(Kernel::kBilateral));
  EXPECT_GT(scalar_stats.count(Kernel::kBilateral), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BilateralEquivalence,
    ::testing::Values(std::pair<int, int>{321, 241},   // Ragged tail (321 % 8 == 1).
                      std::pair<int, int>{64, 48},     // Width-aligned.
                      std::pair<int, int>{7, 5},       // Narrower than one vector.
                      std::pair<int, int>{33, 17}));

TEST(BilateralEquivalence, PooledSimdMatchesSerialSimd) {
  const DepthImage input = synthetic_depth(321, 241, 12);
  KernelStats serial_stats, pooled_stats;
  const DepthImage serial_out = bilateral_filter(
      input, {}, serial_stats, nullptr, KernelPath::kSimd);
  hm::common::ThreadPool pool(4);
  const DepthImage pooled_out = bilateral_filter(
      input, {}, pooled_stats, &pool, KernelPath::kSimd);
  expect_images_bitwise_equal(serial_out, pooled_out);
  EXPECT_EQ(serial_stats.count(Kernel::kBilateral),
            pooled_stats.count(Kernel::kBilateral));
}

TEST(BilateralEquivalence, AutoPathMatchesExplicitPaths) {
  // kAuto must resolve to one of the two tested paths, never a third
  // behavior: with both paths bit-exact, auto output equals both.
  const DepthImage input = synthetic_depth(81, 61, 13);
  KernelStats auto_stats, scalar_stats;
  const DepthImage auto_out =
      bilateral_filter(input, {}, auto_stats, nullptr, KernelPath::kAuto);
  const DepthImage scalar_out = bilateral_filter(
      input, {}, scalar_stats, nullptr, KernelPath::kScalar);
  expect_images_bitwise_equal(auto_out, scalar_out);
}

// --- TSDF integrate ------------------------------------------------------

TEST(IntegrateEquivalence, ScalarAndSimdBitExactVoxels) {
  // Resolution 52 is not a multiple of 4 or 8, so every bbox row ends in a
  // ragged tail handled by the scalar-mirror fallback.
  TsdfVolume scalar_volume(52, 4.8);
  TsdfVolume simd_volume(52, 4.8);
  const Intrinsics camera = Intrinsics::kinect(81, 61);
  const DepthImage depth = synthetic_depth(81, 61, 21);
  SE3 pose;
  pose.translation = {2.4, 2.4, 0.2};
  KernelStats scalar_stats, simd_stats;
  scalar_volume.integrate(depth, camera, pose, 0.15, scalar_stats, nullptr,
                          KernelPath::kScalar);
  simd_volume.integrate(depth, camera, pose, 0.15, simd_stats, nullptr,
                        KernelPath::kSimd);
  // Visited-voxel checksum must match exactly (same bbox, same rows).
  EXPECT_EQ(scalar_stats.count(Kernel::kIntegrate),
            simd_stats.count(Kernel::kIntegrate));
  EXPECT_GT(scalar_stats.count(Kernel::kIntegrate), 0u);

  int updated = 0;
  for (int z = 0; z < 52; ++z) {
    for (int y = 0; y < 52; ++y) {
      for (int x = 0; x < 52; ++x) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar_volume.tsdf_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(simd_volume.tsdf_at(x, y, z)))
            << "voxel (" << x << "," << y << "," << z << ")";
        ASSERT_EQ(scalar_volume.weight_at(x, y, z),
                  simd_volume.weight_at(x, y, z))
            << "voxel (" << x << "," << y << "," << z << ")";
        updated += simd_volume.weight_at(x, y, z) > 0.0f ? 1 : 0;
      }
    }
  }
  EXPECT_GT(updated, 1000);  // The comparison must cover real updates.
}

TEST(IntegrateEquivalence, RepeatedIntegrationStaysBitExact) {
  // Weight saturation and re-updates must not diverge either.
  TsdfVolume scalar_volume(40, 4.8);
  TsdfVolume simd_volume(40, 4.8);
  const Intrinsics camera = Intrinsics::kinect(40, 30);
  SE3 pose;
  pose.translation = {2.4, 2.4, 0.2};
  KernelStats stats;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const DepthImage depth = synthetic_depth(40, 30, 30 + i);
    scalar_volume.integrate(depth, camera, pose, 0.15, stats, nullptr,
                            KernelPath::kScalar);
    simd_volume.integrate(depth, camera, pose, 0.15, stats, nullptr,
                          KernelPath::kSimd);
  }
  for (int z = 0; z < 40; ++z) {
    for (int y = 0; y < 40; ++y) {
      for (int x = 0; x < 40; ++x) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar_volume.tsdf_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(simd_volume.tsdf_at(x, y, z)));
        ASSERT_EQ(scalar_volume.weight_at(x, y, z),
                  simd_volume.weight_at(x, y, z));
      }
    }
  }
}

TEST(IntegrateEquivalence, PooledMatchesSerial) {
  TsdfVolume serial_volume(40, 4.8);
  TsdfVolume pooled_volume(40, 4.8);
  const Intrinsics camera = Intrinsics::kinect(40, 30);
  const DepthImage depth = synthetic_depth(40, 30, 41);
  SE3 pose;
  pose.translation = {2.4, 2.4, 0.2};
  KernelStats serial_stats, pooled_stats;
  serial_volume.integrate(depth, camera, pose, 0.15, serial_stats);
  hm::common::ThreadPool pool(4);
  pooled_volume.integrate(depth, camera, pose, 0.15, pooled_stats, &pool);
  EXPECT_EQ(serial_stats.count(Kernel::kIntegrate),
            pooled_stats.count(Kernel::kIntegrate));
  for (int z = 0; z < 40; ++z) {
    for (int y = 0; y < 40; ++y) {
      for (int x = 0; x < 40; ++x) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(serial_volume.tsdf_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(pooled_volume.tsdf_at(x, y, z)));
      }
    }
  }
}

// --- ICP -----------------------------------------------------------------

struct IcpEquivalenceFixture {
  TsdfVolume volume{64, 4.8};
  Intrinsics camera = Intrinsics::kinect(81, 61);
  SE3 pose;
  KernelStats stats;
  RaycastResult reference;
  std::vector<PyramidLevel> pyramid;

  IcpEquivalenceFixture() {
    pose.translation = {2.4, 2.4, 0.2};
    DepthImage depth(81, 61, 0.0f);
    // Smooth wavy surface (no holes): dense correspondences with varied
    // normals so all six Jacobian channels are exercised.
    for (int v = 0; v < 61; ++v) {
      for (int u = 0; u < 81; ++u) {
        depth.at(u, v) = static_cast<float>(2.0 + 0.2 * std::sin(0.11 * u) +
                                            0.15 * std::cos(0.13 * v));
      }
    }
    for (int i = 0; i < 3; ++i) {
      volume.integrate(depth, camera, pose, 0.15, stats);
    }
    reference = raycast(volume, camera, pose, 0.15, {}, stats);
    pyramid = build_pyramid(depth, camera, 3, stats);
  }
};

TEST(IcpEquivalence, SingleIterationCountsAreBitIdentical) {
  // One iteration from the same pose: the gate decisions (and hence the
  // per-pixel tested/matched counts recorded as Kernel::kIcp) must match
  // exactly — the SIMD path reorders only the accumulation, not the gates.
  IcpEquivalenceFixture fixture;
  IcpConfig config;
  config.iterations = {1, 0, 0};
  SE3 initial = fixture.pose;
  initial.translation.x += 0.01;

  KernelStats scalar_stats, simd_stats;
  const IcpResult scalar_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, config, scalar_stats, nullptr, KernelPath::kScalar);
  const IcpResult simd_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, config, simd_stats, nullptr, KernelPath::kSimd);

  EXPECT_EQ(scalar_stats.count(Kernel::kIcp), simd_stats.count(Kernel::kIcp));
  EXPECT_GT(scalar_stats.count(Kernel::kIcp), 0u);
  EXPECT_EQ(scalar_result.inlier_fraction, simd_result.inlier_fraction);
  // The normal equations differ only in float-vs-double summation order;
  // one solve from identical counts lands within documented tolerance.
  const double translation_diff =
      (scalar_result.pose.translation - simd_result.pose.translation).norm();
  EXPECT_LT(translation_diff, 1e-5);
}

TEST(IcpEquivalence, FullTrackPosesAgreeToTolerance) {
  IcpEquivalenceFixture fixture;
  SE3 initial = fixture.pose;
  initial.translation.x += 0.02;
  initial.translation.z -= 0.015;

  KernelStats scalar_stats, simd_stats;
  const IcpResult scalar_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, {}, scalar_stats, nullptr, KernelPath::kScalar);
  const IcpResult simd_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, {}, simd_stats, nullptr, KernelPath::kSimd);

  EXPECT_TRUE(scalar_result.tracked);
  EXPECT_TRUE(simd_result.tracked);
  // Both must recover (nearly) the reference pose...
  EXPECT_LT((scalar_result.pose.translation - fixture.pose.translation).norm(),
            2e-2);
  // ...and agree with each other far more tightly than with the truth
  // (summation-order noise only, amplified over ~19 solves).
  const double translation_diff =
      (scalar_result.pose.translation - simd_result.pose.translation).norm();
  EXPECT_LT(translation_diff, 1e-4);
  EXPECT_NEAR(scalar_result.final_rms, simd_result.final_rms, 1e-5);
}

TEST(IcpEquivalence, PooledSimdMatchesSerialSimd) {
  // The deterministic chunked reduction makes thread count irrelevant:
  // pooled and serial SIMD runs are bitwise the same computation.
  IcpEquivalenceFixture fixture;
  IcpConfig config;
  config.iterations = {2, 1, 1};
  SE3 initial = fixture.pose;
  initial.translation.y += 0.01;

  KernelStats serial_stats, pooled_stats;
  const IcpResult serial_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, config, serial_stats, nullptr, KernelPath::kSimd);
  hm::common::ThreadPool pool(4);
  const IcpResult pooled_result = icp_track(
      fixture.pyramid, fixture.reference, fixture.camera, fixture.pose,
      initial, config, pooled_stats, &pool, KernelPath::kSimd);

  EXPECT_EQ(serial_stats.count(Kernel::kIcp), pooled_stats.count(Kernel::kIcp));
  EXPECT_EQ(serial_result.pose.translation.x, pooled_result.pose.translation.x);
  EXPECT_EQ(serial_result.pose.translation.y, pooled_result.pose.translation.y);
  EXPECT_EQ(serial_result.pose.translation.z, pooled_result.pose.translation.z);
  EXPECT_EQ(serial_result.final_rms, pooled_result.final_rms);
}

}  // namespace
}  // namespace hm::kfusion
