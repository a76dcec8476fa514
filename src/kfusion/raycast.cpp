#include "kfusion/raycast.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"

namespace hm::kfusion {

RaycastResult raycast(const TsdfVolume& volume, const Intrinsics& intrinsics,
                      const SE3& camera_to_world, double mu,
                      const RaycastConfig& config, KernelStats& stats,
                      hm::common::ThreadPool* pool) {
  RaycastResult result;
  result.vertices = VertexMap(intrinsics.width, intrinsics.height, Vec3f{});
  result.normals = NormalMap(intrinsics.width, intrinsics.height, Vec3f{});

  // Per-ray setup (direction, normalization) stays double; the march and
  // the trilinear samples run in float, with min/max via the simd scalar
  // mirrors.
  const auto coarse_step = static_cast<float>(
      std::max(config.step_fraction * mu, volume.voxel_size() * 0.5));
  const float voxel_f = volume.voxel_size_f();
  const auto near_f = static_cast<float>(config.near_plane);
  const auto far_f = static_cast<float>(config.far_plane);
  const Vec3f origin = hm::geometry::to_float(camera_to_world.translation);

  auto march_rows = [&](std::size_t row_begin, std::size_t row_end,
                        std::uint64_t steps) {
    for (std::size_t v = row_begin; v < row_end; ++v) {
      for (int u = 0; u < intrinsics.width; ++u) {
        const Vec3d dir_camera = intrinsics.ray_direction(u, static_cast<int>(v));
        const double dir_norm = dir_camera.norm();
        const Vec3f dir =
            hm::geometry::to_float(camera_to_world.rotate(dir_camera / dir_norm));

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
            // Unobserved space: step a voxel at a time until re-entering
            // known space.
            have_previous = false;
            t += voxel_f;
            if (volume.leaving(p, dir)) {
              // Every later sample is nullopt too: count the steps the
              // march would take without taking them.
              for (; t < far_f; t += voxel_f) ++steps;
              break;
            }
            continue;
          }
          if (have_previous && previous_value > 0.0f && *value <= 0.0f) {
            // Zero crossing between previous_t and t: linear interpolation.
            const float alpha = previous_value / (previous_value - *value);
            const float t_hit = previous_t + alpha * (t - previous_t);
            const Vec3f hit{origin.x + dir.x * t_hit, origin.y + dir.y * t_hit,
                            origin.z + dir.z * t_hit};
            const auto grad = volume.gradient_f(hit);
            if (grad && grad->squared_norm() > 1e-12f) {
              result.vertices.set(u, static_cast<int>(v), hit);
              Vec3f n = grad->normalized();
              // TSDF increases toward free space, so the gradient already
              // points out of the surface; orient toward the camera.
              if (n.dot(hit - origin) > 0.0f) n = -n;
              result.normals.set(u, static_cast<int>(v), n);
            }
            break;
          }
          if (have_previous && previous_value <= 0.0f) {
            break;  // Started inside the surface; no reliable crossing.
          }
          previous_value = *value;
          previous_t = t;
          have_previous = true;
          // Adaptive stepping: far from the surface (tsdf ~ 1) take the full
          // coarse step; near the surface slow down for a precise crossing.
          const float scale = hm::simd::max_s(0.25f, std::fabs(*value));
          t += hm::simd::max_s(coarse_step * scale, voxel_f * 0.25f);
        }
      }
    }
    return steps;
  };

  // Rows write disjoint result pixels; the step counter reduces without an
  // atomic accumulator. Fixed grain (DESIGN.md §9 grain table).
  const std::uint64_t total_steps = hm::common::parallel_reduce(
      pool, 0, static_cast<std::size_t>(intrinsics.height), std::uint64_t{0},
      march_rows, [](std::uint64_t a, std::uint64_t b) { return a + b; },
      /*grain=*/4);
  stats.add(Kernel::kRaycast, total_steps);
  return result;
}

}  // namespace hm::kfusion
