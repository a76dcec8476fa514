// Exactness of the work-skipping in the TSDF kernels (DESIGN.md §9).
//
// integrate clips each bounding-box row to the x-interval whose voxels can
// project into the image; raycast stops sampling once a ray has left the
// volume moving away from it. Both must be invisible: every test here runs
// the kernel against a test-side brute-force reference (integrate over the
// whole bounding box; a march that samples every step up to the far plane)
// and compares every voxel and map pixel bit for bit, plus the op counts,
// on poses chosen to break a careless clip or exit: the camera outside the
// volume, the optical axis along +-x, a world axis along an image axis (a
// row coefficient of exactly zero), rows lying exactly on an image border,
// rays that start outside and enter, and rays grazing a face.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "dataset/renderer.hpp"
#include "dataset/sdf_scene.hpp"
#include "dataset/trajectory.hpp"
#include "kfusion/raycast.hpp"
#include "kfusion/tsdf_volume.hpp"

namespace hm::kfusion {
namespace {

using hm::geometry::Intrinsics;
using hm::geometry::Mat3d;
using hm::geometry::SE3;
using hm::geometry::Vec3d;
using hm::geometry::Vec3f;
namespace s = hm::simd;

constexpr double kSize = 4.8;
constexpr double kMu = 0.15;

/// Dense reference volume: the storage the kernel had before it skipped
/// anything (distance 1.0, weight 0.0 everywhere).
struct ReferenceVolume {
  int resolution;
  std::vector<float> tsdf;
  std::vector<float> weight;

  explicit ReferenceVolume(int res)
      : resolution(res),
        tsdf(static_cast<std::size_t>(res) * res * res, 1.0f),
        weight(static_cast<std::size_t>(res) * res * res, 0.0f) {}

  [[nodiscard]] std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * resolution + y) * resolution + x;
  }
};

/// TsdfVolume::integrate without row clipping: the same bounding box and
/// the same per-voxel float chain (the scalar mirror) on every voxel of it.
/// Returns the number of voxels visited.
std::uint64_t reference_integrate(ReferenceVolume& volume,
                                  const DepthImage& depth,
                                  const Intrinsics& intrinsics,
                                  const SE3& camera_to_world, double mu) {
  const int res = volume.resolution;
  const double voxel_size = kSize / res;
  const SE3 world_to_camera = camera_to_world.inverse();
  const auto mu_f = static_cast<float>(std::max(mu, voxel_size));
  float max_depth = 0.0f;
  for (int v = 0; v < depth.height(); ++v) {
    for (int u = 0; u < depth.width(); ++u) {
      max_depth = std::max(max_depth, depth.at(u, v));
    }
  }
  if (max_depth <= 0.0f) return 0;
  const double far = static_cast<double>(max_depth) + mu;
  Vec3d box_min = camera_to_world.translation;
  Vec3d box_max = camera_to_world.translation;
  const int corners[4][2] = {{0, 0},
                             {intrinsics.width - 1, 0},
                             {0, intrinsics.height - 1},
                             {intrinsics.width - 1, intrinsics.height - 1}};
  for (const auto& corner : corners) {
    const Vec3d p =
        camera_to_world * (intrinsics.ray_direction(corner[0], corner[1]) * far);
    box_min = {std::min(box_min.x, p.x), std::min(box_min.y, p.y),
               std::min(box_min.z, p.z)};
    box_max = {std::max(box_max.x, p.x), std::max(box_max.y, p.y),
               std::max(box_max.z, p.z)};
  }
  const auto clamp_voxel = [&](double w) {
    return std::clamp(static_cast<int>(std::floor(w / voxel_size)), 0, res - 1);
  };
  const int x0 = clamp_voxel(box_min.x), x1 = clamp_voxel(box_max.x);
  const int y0 = clamp_voxel(box_min.y), y1 = clamp_voxel(box_max.y);
  const int z0 = clamp_voxel(box_min.z), z1 = clamp_voxel(box_max.z);

  const auto& r = world_to_camera.rotation;
  const Vec3d t = world_to_camera.translation;
  const auto f = [](double value) { return static_cast<float>(value); };
  const float voxel_f = f(voxel_size);
  const float fx = f(intrinsics.fx), fy = f(intrinsics.fy);
  const float cx0 = f(intrinsics.cx), cy0 = f(intrinsics.cy);
  const float width_f = static_cast<float>(intrinsics.width);
  const float height_f = static_cast<float>(intrinsics.height);
  std::uint64_t visited = 0;
  for (int zi = z0; zi <= z1; ++zi) {
    const float wz = (static_cast<float>(zi) + 0.5f) * voxel_f;
    for (int yi = y0; yi <= y1; ++yi) {
      const float wy = (static_cast<float>(yi) + 0.5f) * voxel_f;
      const float Kx = s::fmadd_s(f(r(0, 1)), wy, s::fmadd_s(f(r(0, 2)), wz, f(t.x)));
      const float Ky = s::fmadd_s(f(r(1, 1)), wy, s::fmadd_s(f(r(1, 2)), wz, f(t.y)));
      const float Kz = s::fmadd_s(f(r(2, 1)), wy, s::fmadd_s(f(r(2, 2)), wz, f(t.z)));
      for (int xi = x0; xi <= x1; ++xi) {
        ++visited;
        const float wx = (static_cast<float>(xi) + 0.5f) * voxel_f;
        const float cx = s::fmadd_s(f(r(0, 0)), wx, Kx);
        const float cy = s::fmadd_s(f(r(1, 0)), wx, Ky);
        const float cz = s::fmadd_s(f(r(2, 0)), wx, Kz);
        if (cz <= 1e-6f) continue;
        const float uf = s::fmadd_s(fx, cx / cz, cx0);
        const float vf = s::fmadd_s(fy, cy / cz, cy0);
        if (uf < 0.0f || vf < 0.0f || uf >= width_f || vf >= height_f) continue;
        const float measured =
            depth.at(static_cast<int>(uf), static_cast<int>(vf));
        if (measured <= 0.0f) continue;
        const float sdf = measured - cz;
        if (sdf < -mu_f) continue;
        const float truncated = s::min_s(1.0f, sdf * (1.0f / mu_f));
        const std::size_t i = volume.index(xi, yi, zi);
        const float t_old = volume.tsdf[i];
        const float w_old = volume.weight[i];
        volume.tsdf[i] = s::fmadd_s(t_old, w_old, truncated) / (w_old + 1.0f);
        volume.weight[i] = s::min_s(w_old + 1.0f, 100.0f);
      }
    }
  }
  return visited;
}

/// raycast() without the early exit: every step up to the far plane samples
/// the volume.
RaycastResult reference_raycast(const TsdfVolume& volume,
                                const Intrinsics& intrinsics,
                                const SE3& camera_to_world, double mu,
                                std::uint64_t& steps) {
  const RaycastConfig config;
  RaycastResult result;
  result.vertices = hm::geometry::VertexMap(intrinsics.width, intrinsics.height, Vec3f{});
  result.normals = hm::geometry::NormalMap(intrinsics.width, intrinsics.height, Vec3f{});
  const auto coarse_step = static_cast<float>(
      std::max(config.step_fraction * mu, volume.voxel_size() * 0.5));
  const float voxel_f = volume.voxel_size_f();
  const auto near_f = static_cast<float>(config.near_plane);
  const auto far_f = static_cast<float>(config.far_plane);
  const Vec3f origin = hm::geometry::to_float(camera_to_world.translation);
  for (int v = 0; v < intrinsics.height; ++v) {
    for (int u = 0; u < intrinsics.width; ++u) {
      const Vec3d dir_camera = intrinsics.ray_direction(u, v);
      const Vec3f dir = hm::geometry::to_float(
          camera_to_world.rotate(dir_camera / dir_camera.norm()));
      float t = near_f;
      float previous_t = t;
      float previous_value = 1.0f;
      bool have_previous = false;
      while (t < far_f) {
        ++steps;
        const Vec3f p{origin.x + dir.x * t, origin.y + dir.y * t,
                      origin.z + dir.z * t};
        const auto value = volume.sample_f(p);
        if (!value) {
          have_previous = false;
          t += voxel_f;
          continue;
        }
        if (have_previous && previous_value > 0.0f && *value <= 0.0f) {
          const float alpha = previous_value / (previous_value - *value);
          const float t_hit = previous_t + alpha * (t - previous_t);
          const Vec3f hit{origin.x + dir.x * t_hit, origin.y + dir.y * t_hit,
                          origin.z + dir.z * t_hit};
          const auto grad = volume.gradient_f(hit);
          if (grad && grad->squared_norm() > 1e-12f) {
            result.vertices.set(u, v, hit);
            Vec3f n = grad->normalized();
            if (n.dot(hit - origin) > 0.0f) n = -n;
            result.normals.set(u, v, n);
          }
          break;
        }
        if (have_previous && previous_value <= 0.0f) break;
        previous_value = *value;
        previous_t = t;
        have_previous = true;
        const float scale = s::max_s(0.25f, std::fabs(*value));
        t += s::max_s(coarse_step * scale, voxel_f * 0.25f);
      }
    }
  }
  return result;
}

void expect_same_voxels(const TsdfVolume& volume, const ReferenceVolume& reference) {
  const int res = volume.resolution();
  for (int z = 0; z < res; ++z) {
    for (int y = 0; y < res; ++y) {
      for (int x = 0; x < res; ++x) {
        const std::size_t i = reference.index(x, y, z);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(volume.tsdf_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(reference.tsdf[i]))
            << "voxel (" << x << "," << y << "," << z << ")";
        ASSERT_EQ(std::bit_cast<std::uint32_t>(volume.weight_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(reference.weight[i]))
            << "voxel (" << x << "," << y << "," << z << ")";
      }
    }
  }
}

void expect_same_maps(const RaycastResult& a, const RaycastResult& b) {
  ASSERT_EQ(a.vertices.width(), b.vertices.width());
  ASSERT_EQ(a.vertices.height(), b.vertices.height());
  const auto same = [](Vec3f p, Vec3f q) {
    return std::bit_cast<std::uint32_t>(p.x) == std::bit_cast<std::uint32_t>(q.x) &&
           std::bit_cast<std::uint32_t>(p.y) == std::bit_cast<std::uint32_t>(q.y) &&
           std::bit_cast<std::uint32_t>(p.z) == std::bit_cast<std::uint32_t>(q.z);
  };
  for (int v = 0; v < a.vertices.height(); ++v) {
    for (int u = 0; u < a.vertices.width(); ++u) {
      ASSERT_TRUE(same(a.vertices.at(u, v), b.vertices.at(u, v))) << u << "," << v;
      ASSERT_TRUE(same(a.normals.at(u, v), b.normals.at(u, v))) << u << "," << v;
    }
  }
}

/// Depth in [0.4, 6.4] m with holes: a frustum that reaches far outside the
/// volume and a mix of accepted and rejected voxels near every border.
DepthImage wavy_depth(int width, int height, std::uint64_t seed) {
  hm::common::Rng rng(seed);
  DepthImage depth(width, height, 0.0f);
  for (int v = 0; v < height; ++v) {
    for (int u = 0; u < width; ++u) {
      const double z = 3.4 + 2.0 * std::sin(0.09 * u + 0.3) * std::cos(0.07 * v) +
                       rng.uniform(-1.0, 1.0);
      depth.at(u, v) = rng.uniform(0.0, 1.0) < 0.05 ? 0.0f : static_cast<float>(z);
    }
  }
  return depth;
}

SE3 pose_from(const Mat3d& rotation, Vec3d translation) {
  SE3 pose;
  pose.rotation = rotation;
  pose.translation = translation;
  return pose;
}

/// Camera-to-world rotation from the rows given (row-major).
Mat3d rows(double a, double b, double c, double d, double e, double f, double g,
           double h, double i) {
  Mat3d m;
  m.m = {a, b, c, d, e, f, g, h, i};
  return m;
}

/// Optical axis (camera z) along world +x; world x is neither image axis.
const Mat3d kAxisPlusX = rows(0, 0, 1, 0, 1, 0, -1, 0, 0);
/// Optical axis along world -x.
const Mat3d kAxisMinusX = rows(0, 0, -1, 0, 1, 0, 1, 0, 0);
/// World x along the image's v axis: cz and u are constant along each row.
const Mat3d kXAlongImageV = rows(0, 1, 0, -1, 0, 0, 0, 0, 1);

/// Integrates `depth` from `pose` into a kernel volume and a reference
/// volume that already hold the same content, then compares everything.
void check_integrate(TsdfVolume& volume, ReferenceVolume& reference,
                     const DepthImage& depth, const Intrinsics& camera,
                     const SE3& pose) {
  KernelStats stats;
  volume.integrate(depth, camera, pose, kMu, stats);
  const std::uint64_t visited =
      reference_integrate(reference, depth, camera, pose, kMu);
  EXPECT_EQ(stats.count(Kernel::kIntegrate), visited);
  expect_same_voxels(volume, reference);
}

struct IntegrateCase {
  const char* name;
  Mat3d rotation;
  Vec3d translation;
};

TEST(IntegrateClipping, MatchesFullBoundingBoxOnAdversarialPoses) {
  const int res = 52;  // Not a multiple of the vector width: ragged rows.
  const Intrinsics camera = Intrinsics::kinect(81, 61);
  const IntegrateCase cases[] = {
      {"inside, identity", Mat3d::identity(), {2.4, 2.4, 0.2}},
      {"outside behind -z face", Mat3d::identity(), {2.4, 2.1, -1.5}},
      {"outside beyond +z face, facing away", Mat3d::identity(), {2.4, 2.4, 6.0}},
      {"optical axis +x, outside", kAxisPlusX, {-1.2, 2.4, 2.4}},
      {"optical axis +x, inside", kAxisPlusX, {0.3, 1.7, 3.1}},
      {"optical axis -x, outside", kAxisMinusX, {6.3, 2.4, 2.4}},
      {"optical axis -x, inside", kAxisMinusX, {4.5, 3.0, 1.9}},
      {"world x along image v, inside", kXAlongImageV, {2.4, 2.4, 0.1}},
      {"world x along image v, outside", kXAlongImageV, {2.4, -0.7, -0.9}},
  };
  TsdfVolume volume(res, kSize);
  ReferenceVolume reference(res);
  std::uint64_t seed = 1;
  for (const IntegrateCase& c : cases) {
    SCOPED_TRACE(c.name);
    check_integrate(volume, reference, wavy_depth(81, 61, seed++), camera,
                    pose_from(c.rotation, c.translation));
  }
  EXPECT_GT(volume.occupancy(), 0.05);  // The comparison covered real updates.
}

TEST(IntegrateClipping, RowsOnAnImageBorderAreKept) {
  // cy = 0 puts the top image border (v >= 0, accepted) and cy = height the
  // bottom one (v < height, rejected) in the plane of the camera's x and z
  // axes. With the camera's y exactly equal to a voxel row's center, that
  // row's every voxel projects to v == cy exactly: the row is tangent to
  // the border, its coefficient is zero, and only the border test decides.
  const int res = 64;
  const float voxel_f = static_cast<float>(kSize / res);
  TsdfVolume volume(res, kSize);
  ReferenceVolume reference(res);
  std::uint64_t seed = 20;
  for (const double cy : {0.0, 61.0}) {
    Intrinsics camera = Intrinsics::kinect(81, 61);
    camera.cy = cy;
    for (const int row : {0, 17, 40, 63}) {
      SCOPED_TRACE(row);
      const double y = static_cast<double>((static_cast<float>(row) + 0.5f) * voxel_f);
      check_integrate(volume, reference, wavy_depth(81, 61, seed++), camera,
                      pose_from(Mat3d::identity(), {2.4, y, 0.05}));
      // The same with world x along the image's v axis: now a left/right
      // border (cx = 0 or width) contains whole rows.
      Intrinsics side = camera;
      side.cy = 30.5;
      side.cx = cy == 0.0 ? 0.0 : 81.0;
      check_integrate(volume, reference, wavy_depth(81, 61, seed++), side,
                      pose_from(kXAlongImageV, {2.4, y, 0.05}));
    }
  }
  EXPECT_GT(volume.occupancy(), 0.05);
}

TEST(IntegrateClipping, MatchesFullBoundingBoxOnRandomPoses) {
  const int res = 40;
  const Intrinsics camera = Intrinsics::kinect(64, 48);
  TsdfVolume volume(res, kSize);
  ReferenceVolume reference(res);
  hm::common::Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    SCOPED_TRACE(i);
    // Eyes inside and up to 2 m outside the volume, looking anywhere near it.
    const Vec3d eye{rng.uniform(-2.0, 6.8), rng.uniform(-2.0, 6.8),
                    rng.uniform(-2.0, 6.8)};
    const Vec3d target{rng.uniform(0.0, 4.8), rng.uniform(0.0, 4.8),
                       rng.uniform(0.0, 4.8)};
    check_integrate(volume, reference, wavy_depth(64, 48, 100 + i), camera,
                    hm::dataset::look_at(eye, target));
  }
}

TEST(IntegrateClipping, PooledMatchesSerialAfterClipping) {
  const Intrinsics camera = Intrinsics::kinect(81, 61);
  TsdfVolume serial(52, kSize);
  TsdfVolume pooled(52, kSize);
  hm::common::ThreadPool pool(4);
  const SE3 poses[] = {pose_from(kAxisPlusX, {-1.2, 2.4, 2.4}),
                       pose_from(Mat3d::identity(), {2.4, 2.4, 0.2}),
                       pose_from(kXAlongImageV, {2.4, 2.4, 0.1})};
  std::uint64_t seed = 40;
  for (const SE3& pose : poses) {
    const DepthImage depth = wavy_depth(81, 61, seed++);
    KernelStats serial_stats, pooled_stats;
    serial.integrate(depth, camera, pose, kMu, serial_stats);
    pooled.integrate(depth, camera, pose, kMu, pooled_stats, &pool);
    EXPECT_EQ(serial_stats.count(Kernel::kIntegrate),
              pooled_stats.count(Kernel::kIntegrate));
  }
  for (int z = 0; z < 52; ++z) {
    for (int y = 0; y < 52; ++y) {
      for (int x = 0; x < 52; ++x) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(serial.tsdf_at(x, y, z)),
                  std::bit_cast<std::uint32_t>(pooled.tsdf_at(x, y, z)));
        ASSERT_EQ(serial.weight_at(x, y, z), pooled.weight_at(x, y, z));
      }
    }
  }
}

// --- Raycast early exit ---------------------------------------------------

/// A 64^3 volume holding the living room as seen from a few poses, so rays
/// from anywhere cross both observed and unobserved space.
const TsdfVolume& room_volume() {
  static const TsdfVolume volume = [] {
    TsdfVolume v(64, kSize);
    const hm::dataset::Scene scene = hm::dataset::build_living_room();
    const Intrinsics camera = Intrinsics::kinect(80, 60);
    KernelStats stats;
    for (const auto& [eye, target] :
         {std::pair<Vec3d, Vec3d>{{2.4, 1.3, 3.6}, {2.4, 1.6, 1.0}},
          {{1.0, 1.5, 2.0}, {4.0, 1.5, 2.5}},
          {{3.8, 1.2, 1.0}, {1.0, 1.8, 3.5}}}) {
      const SE3 pose = hm::dataset::look_at(eye, target);
      const DepthImage depth = hm::dataset::render_depth(scene, camera, pose);
      for (int i = 0; i < 2; ++i) v.integrate(depth, camera, pose, kMu, stats);
    }
    return v;
  }();
  return volume;
}

void check_raycast(const Intrinsics& camera, const SE3& pose, int min_hits) {
  KernelStats stats;
  const RaycastResult fast = raycast(room_volume(), camera, pose, kMu, {}, stats);
  std::uint64_t steps = 0;
  const RaycastResult slow =
      reference_raycast(room_volume(), camera, pose, kMu, steps);
  EXPECT_EQ(stats.count(Kernel::kRaycast), steps);
  expect_same_maps(fast, slow);
  int hits = 0;
  for (int v = 0; v < camera.height; ++v) {
    for (int u = 0; u < camera.width; ++u) {
      hits += fast.vertices.at(u, v) == Vec3f{} ? 0 : 1;
    }
  }
  EXPECT_GE(hits, min_hits);
}

TEST(RaycastEarlyExit, MatchesFullMarchFromInside) {
  const Intrinsics camera = Intrinsics::kinect(81, 61);
  check_raycast(camera, hm::dataset::look_at({2.4, 1.3, 3.6}, {2.4, 1.6, 1.0}), 300);
  check_raycast(camera, pose_from(kAxisPlusX, {1.0, 1.5, 2.4}), 100);
  check_raycast(camera, pose_from(kAxisMinusX, {4.0, 1.5, 2.4}), 100);
}

TEST(RaycastEarlyExit, RaysStartingOutsideEnterTheVolume) {
  // The first samples lie outside with the ray moving toward the volume:
  // no exit until after the ray has crossed it.
  const Intrinsics camera = Intrinsics::kinect(81, 61);
  check_raycast(camera, pose_from(kAxisPlusX, {-1.0, 1.5, 2.4}), 100);
  check_raycast(camera, pose_from(kAxisMinusX, {5.9, 1.5, 2.4}), 50);
  check_raycast(camera, hm::dataset::look_at({2.4, 1.5, -1.5}, {2.4, 1.5, 3.0}), 100);
  check_raycast(camera, hm::dataset::look_at({-1.0, -1.0, -1.0}, {2.4, 1.5, 2.4}), 1);
}

TEST(RaycastEarlyExit, GrazingRaysAlongAFace) {
  // Principal point on a pixel center, so the middle row's rays have a
  // direction y of exactly 0. With the camera's y on the edge of the
  // sampling domain (voxel centers 0 and res-1) those rays run along a face:
  // just inside they must be marched, just outside they can never enter.
  const float voxel_f = static_cast<float>(kSize / 64);
  Intrinsics camera = Intrinsics::kinect(81, 61);
  camera.cx = 40.5;
  camera.cy = 30.5;
  const double low = 0.5 * voxel_f;
  const double high = (64 - 1.5) * voxel_f;
  for (const double y : {low, std::nextafter(low, 0.0), std::nextafter(low, 1.0),
                         high, std::nextafter(high, 0.0), std::nextafter(high, 9.0)}) {
    SCOPED_TRACE(y);
    check_raycast(camera, pose_from(Mat3d::identity(), {2.4, y, -0.5}), 0);
    check_raycast(camera, pose_from(kAxisPlusX, {-0.5, y, 2.4}), 0);
    check_raycast(camera, pose_from(Mat3d::identity(), {2.4, y, 0.5}), 0);
  }
}

TEST(RaycastEarlyExit, MatchesFullMarchOnRandomPoses) {
  const Intrinsics camera = Intrinsics::kinect(48, 36);
  hm::common::Rng rng(91);
  for (int i = 0; i < 30; ++i) {
    SCOPED_TRACE(i);
    const Vec3d eye{rng.uniform(-2.0, 6.8), rng.uniform(-2.0, 6.8),
                    rng.uniform(-2.0, 6.8)};
    const Vec3d target{rng.uniform(0.0, 4.8), rng.uniform(0.0, 4.8),
                       rng.uniform(0.0, 4.8)};
    check_raycast(camera, hm::dataset::look_at(eye, target), 0);
  }
}

}  // namespace
}  // namespace hm::kfusion
