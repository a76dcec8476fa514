// Truncated signed distance function volume: the KFusion map representation.
// Dense voxel grid over a cube [0, size]^3, each voxel holding a truncated
// signed distance (normalized to [-1, 1] by mu) and an integration weight.
// Weight 0 means "unobserved": no reader ever uses the distance stored in
// such a voxel, so both arrays live in fresh anonymous zero pages and only
// the pages integrate writes ever become resident (DESIGN.md §9). Storage is
// page-aligned and x-contiguous so the SIMD integrate path can load/store
// runs of voxels directly (ragged row tails fall back to the scalar mirror).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>

#include "common/thread_pool.hpp"
#include "geometry/camera.hpp"
#include "geometry/image.hpp"
#include "geometry/se3.hpp"
#include "kfusion/kernel_stats.hpp"

namespace hm::kfusion {

using hm::geometry::DepthImage;
using hm::geometry::Intrinsics;
using hm::geometry::SE3;
using hm::geometry::Vec3d;
using hm::geometry::Vec3f;

class TsdfVolume {
 public:
  /// `resolution` voxels per axis over a cube of edge `size` meters.
  TsdfVolume(int resolution, double size);

  [[nodiscard]] int resolution() const noexcept { return resolution_; }
  [[nodiscard]] double size() const noexcept { return size_; }
  [[nodiscard]] double voxel_size() const noexcept { return voxel_size_; }
  [[nodiscard]] float voxel_size_f() const noexcept {
    return static_cast<float>(voxel_size_);
  }

  /// Fuses a depth map taken from `camera_to_world` into the volume using
  /// the standard weighted-average TSDF update with truncation `mu`.
  /// Voxels inside the camera frustum's bounding box are candidates; each
  /// bounding-box row is clipped to a conservative x-interval that holds
  /// every voxel which can project into the image, and the rest of the row
  /// is skipped. `stats` records the full bounding-box voxel count
  /// (Kernel::kIntegrate, the device model's work). The scalar and SIMD
  /// paths are bit-exact against each other (DESIGN.md §9).
  void integrate(const DepthImage& depth, const Intrinsics& intrinsics,
                 const SE3& camera_to_world, double mu, KernelStats& stats,
                 hm::common::ThreadPool* pool = nullptr,
                 KernelPath path = KernelPath::kAuto);

  /// Trilinear TSDF interpolation at a world point; nullopt outside the
  /// volume or where any support voxel has zero weight. Double-precision
  /// reference used by tests and diagnostics.
  [[nodiscard]] std::optional<float> sample(Vec3d world) const;

  /// Single-precision trilinear sample used by the raycaster; nullopt
  /// outside the volume or where any support voxel has zero weight.
  [[nodiscard]] std::optional<float> sample_f(Vec3f world) const;

  /// True when sample_f(world + t * direction) is nullopt for every t >= 0
  /// because the point has left the sampling domain on an axis and
  /// `direction` does not point back in along it. The test uses the same
  /// float expressions as sample_f, whose cell index is monotone in t, so
  /// it is exact for points computed as `world.x + direction.x * t`.
  [[nodiscard]] bool leaving(Vec3f world, Vec3f direction) const;

  /// TSDF gradient (unnormalized surface normal) by central differences of
  /// trilinear samples.
  [[nodiscard]] std::optional<Vec3f> gradient(Vec3d world) const;

  /// Single-precision gradient by central differences of sample_f.
  [[nodiscard]] std::optional<Vec3f> gradient_f(Vec3f world) const;

  /// Raw voxel access for tests (no bounds clamping; asserts in debug).
  /// tsdf_at reports 1.0 (free space) for an unobserved voxel.
  [[nodiscard]] float tsdf_at(int x, int y, int z) const;
  [[nodiscard]] float weight_at(int x, int y, int z) const;

  /// Fraction of voxels with non-zero weight (diagnostics).
  [[nodiscard]] double occupancy() const;

  /// Returns every voxel to unobserved and releases its pages.
  void clear();

 private:
  [[nodiscard]] std::size_t index(int x, int y, int z) const noexcept {
    return (static_cast<std::size_t>(z) * static_cast<std::size_t>(resolution_) +
            static_cast<std::size_t>(y)) *
               static_cast<std::size_t>(resolution_) +
           static_cast<std::size_t>(x);
  }

  /// Releases an anonymous mapping of `bytes` bytes.
  struct Unmap {
    std::size_t bytes = 0;
    void operator()(float* data) const noexcept;
  };
  using Pages = std::unique_ptr<float[], Unmap>;
  /// `count` zero floats in a fresh anonymous mapping hinted for huge pages.
  [[nodiscard]] static Pages zero_pages(std::size_t count);

  int resolution_;
  double size_;
  double voxel_size_;
  std::size_t voxel_count_;
  /// Linear offsets of the 8 trilinear corners in sample order
  /// (corner = dz*4 + dy*2 + dx): {0, 1, res, res+1, res^2, ...}.
  std::array<std::size_t, 8> corner_offsets_{};
  Pages tsdf_;
  Pages weight_;
};

}  // namespace hm::kfusion
