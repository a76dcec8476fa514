// TSDF raycasting: extracts vertex and normal maps of the implicit surface
// as seen from a camera pose. Used both as the ICP reference ("model"
// tracking) and for visualization.
#pragma once

#include "common/thread_pool.hpp"
#include "geometry/camera.hpp"
#include "geometry/se3.hpp"
#include "geometry/soa.hpp"
#include "kfusion/kernel_stats.hpp"
#include "kfusion/tsdf_volume.hpp"

namespace hm::kfusion {

using hm::geometry::NormalMap;
using hm::geometry::VertexMap;

struct RaycastResult {
  VertexMap vertices;  ///< World-space surface points; zero = miss.
  NormalMap normals;   ///< World-space unit normals; zero = miss.
};

struct RaycastConfig {
  double near_plane = 0.3;
  double far_plane = 8.0;
  /// Coarse step as a fraction of mu (KFusion steps ~0.75 * mu until close
  /// to the surface, then refines).
  double step_fraction = 0.75;
};

/// Marches every pixel's ray through the volume from `camera_to_world`,
/// finds the positive-to-negative zero crossing, refines it by linear
/// interpolation, and reports world-space position and normal.
/// Total ray steps up to the far plane are recorded as Kernel::kRaycast
/// (the device model's work). Once a ray has left the volume moving away
/// from it no sample can succeed, so its remaining steps are counted
/// without sampling (DESIGN.md §9).
[[nodiscard]] RaycastResult raycast(const TsdfVolume& volume,
                                    const Intrinsics& intrinsics,
                                    const SE3& camera_to_world, double mu,
                                    const RaycastConfig& config, KernelStats& stats,
                                    hm::common::ThreadPool* pool = nullptr);

}  // namespace hm::kfusion
