#include "elasticfusion/surfel_map.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hm::elasticfusion {
namespace {

using hm::geometry::Intrinsics;
using hm::geometry::IntensityImage;
using hm::geometry::NormalMap;
using hm::geometry::VertexMap;

/// A flat wall observed head-on: every pixel has vertex (x, y, 2) and
/// normal (0, 0, -1) in camera space.
struct WallFrame {
  Intrinsics camera = Intrinsics::kinect(20, 15);
  VertexMap vertices{20, 15, Vec3f{}};
  NormalMap normals{20, 15, Vec3f{}};
  IntensityImage intensity{20, 15, 0.5f};

  WallFrame() {
    for (int v = 0; v < 15; ++v) {
      for (int u = 0; u < 20; ++u) {
        vertices.set(u, v, hm::geometry::to_float(camera.unproject(u, v, 2.0)));
        normals.set(u, v, Vec3f{0, 0, -1});
      }
    }
  }
};

/// Number of pixels in `map` holding a non-sentinel vector.
int filled_count(const hm::geometry::SoaVec3Map& map) {
  int filled = 0;
  for (int v = 0; v < map.height(); ++v) {
    for (int u = 0; u < map.width(); ++u) {
      filled += map.at(u, v) == Vec3f{} ? 0 : 1;
    }
  }
  return filled;
}

TEST(SurfelMap, FirstFusionCreatesSurfels) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  EXPECT_GT(map.size(), 0u);
  EXPECT_LE(map.size(), frame.camera.pixel_count());
  EXPECT_GT(stats.count(Kernel::kSurfelFusion), 0u);
}

TEST(SurfelMap, RefusionMergesInsteadOfDuplicating) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  const std::size_t after_first = map.size();
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 1, {}, stats);
  // Same observation fuses into existing surfels; little to no growth.
  EXPECT_LE(map.size(), after_first + after_first / 10);
}

TEST(SurfelMap, ConfidenceGrowsWithObservations) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  for (std::uint32_t i = 0; i < 5; ++i) {
    map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, i, {}, stats);
  }
  double max_confidence = 0.0;
  for (const Surfel& s : map.surfels()) {
    max_confidence = std::max(max_confidence, static_cast<double>(s.confidence));
  }
  EXPECT_GE(max_confidence, 5.0);
}

TEST(SurfelMap, StableCountThresholds) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  // Merged pixels give some surfels confidence > 1 already; with threshold 1
  // everything is stable, with a huge threshold nothing is.
  EXPECT_EQ(map.stable_count(1.0), map.size());
  EXPECT_EQ(map.stable_count(1e9), 0u);
}

TEST(SurfelMap, NormalDisagreementPreventsMerge) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  const std::size_t after_first = map.size();
  // Same geometry but flipped normals: must create new surfels.
  WallFrame flipped;
  for (int v = 0; v < flipped.normals.height(); ++v) {
    for (int u = 0; u < flipped.normals.width(); ++u) {
      flipped.normals.set(u, v, Vec3f{0, 0, 1});
    }
  }
  map.fuse(flipped.vertices, flipped.normals, flipped.intensity, SE3{}, 1, {},
           stats);
  EXPECT_GT(map.size(), after_first + after_first / 2);
}

TEST(SurfelMap, PoseTransformsObservationsToWorld) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  SE3 pose;
  pose.translation = {1.0, 2.0, 3.0};
  map.fuse(frame.vertices, frame.normals, frame.intensity, pose, 0, {}, stats);
  // All surfels must be near world z = 3 + 2 = 5.
  for (const Surfel& s : map.surfels()) {
    EXPECT_NEAR(s.position.z, 5.0f, 0.1f);
  }
}

TEST(SurfelMap, ProjectRendersStoredSurfels) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  for (std::uint32_t i = 0; i < 3; ++i) {
    map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, i, {}, stats);
  }
  const ModelView view =
      map.project(frame.camera, SE3{}, 1.0, 3, 0, stats);
  int filled = 0;
  for (int v = 0; v < 15; ++v) {
    for (int u = 0; u < 20; ++u) {
      const Vec3f vertex = view.vertices.at(u, v);
      if (vertex == Vec3f{}) continue;
      ++filled;
      EXPECT_NEAR(vertex.z, 2.0f, 0.05f);
      EXPECT_NEAR(view.normals.at(u, v).z, -1.0f, 1e-4f);
      EXPECT_NEAR(view.intensity.at(u, v), 0.5f, 1e-4f);
    }
  }
  EXPECT_GT(filled, 100);
}

TEST(SurfelMap, ProjectRespectsConfidenceThreshold) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  // Huge threshold and no unstable window: nothing renders.
  const ModelView empty_view =
      map.project(frame.camera, SE3{}, 1e9, 0, 0, stats);
  EXPECT_EQ(filled_count(empty_view.vertices), 0);
}

TEST(SurfelMap, UnstableWindowAdmitsRecentSurfels) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 10, {}, stats);
  // Threshold too high for their confidence, but they were seen at frame 10.
  const ModelView recent_view =
      map.project(frame.camera, SE3{}, 1e9, 12, 30, stats);
  EXPECT_GT(filled_count(recent_view.vertices), 100);
  // Far in the future, the window has expired.
  const ModelView stale_view =
      map.project(frame.camera, SE3{}, 1e9, 100, 30, stats);
  EXPECT_EQ(filled_count(stale_view.vertices), 0);
}

TEST(SurfelMap, ZBufferKeepsNearestSurfel) {
  SurfelMap map;
  KernelStats stats;
  const Intrinsics camera = Intrinsics::kinect(10, 10);
  // Two surfels on the same ray at different depths.
  VertexMap near_vertices(10, 10, Vec3f{});
  NormalMap normals(10, 10, Vec3f{});
  IntensityImage near_intensity(10, 10, 0.2f);
  near_vertices.set(5, 5, hm::geometry::to_float(camera.unproject(5, 5, 1.0)));
  normals.set(5, 5, Vec3f{0, 0, -1});
  map.fuse(near_vertices, normals, near_intensity, SE3{}, 0, {}, stats);

  VertexMap far_vertices(10, 10, Vec3f{});
  IntensityImage far_intensity(10, 10, 0.9f);
  far_vertices.set(5, 5, hm::geometry::to_float(camera.unproject(5, 5, 3.0)));
  map.fuse(far_vertices, normals, far_intensity, SE3{}, 0, {}, stats);

  EXPECT_EQ(map.size(), 2u);
  const ModelView view = map.project(camera, SE3{}, 0.5, 0, 10, stats);
  EXPECT_NEAR(view.vertices.at(5, 5).z, 1.0f, 0.01f);
  EXPECT_NEAR(view.intensity.at(5, 5), 0.2f, 0.01f);
}

TEST(SurfelMap, PruneRemovesStaleUnstableSurfels) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 0, {}, stats);
  const std::size_t before = map.size();
  // Far in the future with a high confidence bar: everything is stale.
  const std::size_t removed = map.prune(1000, 10, 1e9, stats);
  EXPECT_EQ(removed, before);
  EXPECT_EQ(map.size(), 0u);
}

TEST(SurfelMap, PruneKeepsStableAndRecentSurfels) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  for (std::uint32_t i = 0; i < 6; ++i) {
    map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, i, {}, stats);
  }
  // With threshold 3, most surfels are stable; nothing should vanish.
  EXPECT_EQ(map.prune(100, 10, 3.0, stats), 0u);
  // Recent surfels survive even a high bar.
  EXPECT_EQ(map.prune(10, 10, 1e9, stats), 0u);
  EXPECT_GT(map.size(), 0u);
}

TEST(SurfelMap, PruneRebuildsAssociationGrid) {
  WallFrame frame;
  SurfelMap map;
  KernelStats stats;
  // Stable wall: fused five times at the identity pose.
  for (std::uint32_t i = 0; i < 5; ++i) {
    map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, i, {}, stats);
  }
  const std::size_t stable_before = map.stable_count(4.5);
  ASSERT_GT(stable_before, 0u);
  // One-shot noise far away (low confidence, observed once at frame 5).
  SE3 offset;
  offset.translation = {10, 10, 10};
  map.fuse(frame.vertices, frame.normals, frame.intensity, offset, 5, {}, stats);
  const std::size_t with_noise = map.size();

  // Long after, with a confidence bar the noise never reached.
  const std::size_t removed = map.prune(500, 50, 4.5, stats);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(map.size(), with_noise);
  EXPECT_EQ(map.stable_count(4.5), stable_before);  // Stable wall intact.

  // Fusion after pruning must still merge correctly (grid rebuilt).
  const std::size_t after_prune = map.size();
  map.fuse(frame.vertices, frame.normals, frame.intensity, SE3{}, 6, {}, stats);
  EXPECT_LE(map.size(), after_prune + after_prune / 2);
}

TEST(SurfelMap, DepthDependentRadius) {
  SurfelMap map;
  KernelStats stats;
  const Intrinsics camera = Intrinsics::kinect(10, 10);
  VertexMap vertices(10, 10, Vec3f{});
  NormalMap normals(10, 10, Vec3f{});
  vertices.set(2, 2, hm::geometry::to_float(camera.unproject(2, 2, 1.0)));
  vertices.set(7, 7, hm::geometry::to_float(camera.unproject(7, 7, 4.0)));
  normals.set(2, 2, Vec3f{0, 0, -1});
  normals.set(7, 7, Vec3f{0, 0, -1});
  map.fuse(vertices, normals, {}, SE3{}, 0, {}, stats);
  ASSERT_EQ(map.size(), 2u);
  float near_radius = 0, far_radius = 0;
  for (const Surfel& s : map.surfels()) {
    (s.position.z < 2.0f ? near_radius : far_radius) = s.radius;
  }
  EXPECT_GT(far_radius, near_radius * 2.0f);
}

}  // namespace
}  // namespace hm::elasticfusion
