#include "kfusion/tsdf_volume.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>

#include "common/simd.hpp"

namespace hm::kfusion {

namespace s = hm::simd;

void TsdfVolume::Unmap::operator()(float* data) const noexcept {
  if (data != nullptr) ::munmap(data, bytes);
}

TsdfVolume::Pages TsdfVolume::zero_pages(std::size_t count) {
  const std::size_t bytes = count * sizeof(float);
  void* data = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  // A hint only: without transparent huge pages the mapping still works,
  // it just takes one fault per 4 KiB page instead of per 2 MiB.
  (void)::madvise(data, bytes, MADV_HUGEPAGE);
  return Pages(static_cast<float*>(data), Unmap{bytes});
}

TsdfVolume::TsdfVolume(int resolution, double size)
    : resolution_(resolution),
      size_(size),
      voxel_size_(size / resolution),
      voxel_count_(static_cast<std::size_t>(resolution) * resolution * resolution),
      tsdf_(zero_pages(voxel_count_)),
      weight_(zero_pages(voxel_count_)) {
  assert(resolution > 0 && size > 0.0);
  const auto res = static_cast<std::size_t>(resolution);
  const std::size_t res2 = res * res;
  corner_offsets_ = {0,    1,        res,        res + 1,
                     res2, res2 + 1, res2 + res, res2 + res + 1};
}

void TsdfVolume::clear() {
  // MADV_DONTNEED turns a private anonymous mapping back into untouched
  // zero-fill pages; a fresh mapping does the same if the advice fails.
  for (Pages* pages : {&tsdf_, &weight_}) {
    if (::madvise(pages->get(), pages->get_deleter().bytes, MADV_DONTNEED) != 0) {
      *pages = zero_pages(voxel_count_);
    }
  }
}

void TsdfVolume::integrate(const DepthImage& depth, const Intrinsics& intrinsics,
                           const SE3& camera_to_world, double mu,
                           KernelStats& stats, hm::common::ThreadPool* pool,
                           KernelPath path) {
  const SE3 world_to_camera = camera_to_world.inverse();
  const float max_weight = 100.0f;
  const auto mu_f = static_cast<float>(std::max(mu, voxel_size_));

  // Frustum bounding box in voxel coordinates: the camera position plus the
  // four far-plane corners at the maximum valid depth.
  float max_depth = 0.0f;
  for (int v = 0; v < depth.height(); ++v) {
    const float* row = depth.row(v);
    for (int u = 0; u < depth.width(); ++u) {
      max_depth = std::max(max_depth, row[u]);
    }
  }
  if (max_depth <= 0.0f) return;
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
    return std::clamp(static_cast<int>(std::floor(w / voxel_size_)), 0,
                      resolution_ - 1);
  };
  const int x0 = clamp_voxel(box_min.x), x1 = clamp_voxel(box_max.x);
  const int y0 = clamp_voxel(box_min.y), y1 = clamp_voxel(box_max.y);
  const int z0 = clamp_voxel(box_min.z), z1 = clamp_voxel(box_max.z);

  // Single-precision pose and camera constants. The whole per-voxel chain
  // (world point -> camera point -> projection -> TSDF update) runs in
  // float with explicit fmadd_s/vfma shapes so the scalar reference and the
  // SIMD lanes are bit-identical (DESIGN.md §9).
  const auto& r = world_to_camera.rotation;
  const Vec3d t = world_to_camera.translation;
  const auto r00 = static_cast<float>(r(0, 0)), r01 = static_cast<float>(r(0, 1)),
             r02 = static_cast<float>(r(0, 2));
  const auto r10 = static_cast<float>(r(1, 0)), r11 = static_cast<float>(r(1, 1)),
             r12 = static_cast<float>(r(1, 2));
  const auto r20 = static_cast<float>(r(2, 0)), r21 = static_cast<float>(r(2, 1)),
             r22 = static_cast<float>(r(2, 2));
  const auto tx = static_cast<float>(t.x), ty = static_cast<float>(t.y),
             tz = static_cast<float>(t.z);
  const auto fx = static_cast<float>(intrinsics.fx);
  const auto fy = static_cast<float>(intrinsics.fy);
  const auto cx0 = static_cast<float>(intrinsics.cx);
  const auto cy0 = static_cast<float>(intrinsics.cy);
  const float width_f = static_cast<float>(intrinsics.width);
  const float height_f = static_cast<float>(intrinsics.height);
  const float inv_mu = 1.0f / mu_f;
  const float voxel_f = static_cast<float>(voxel_size_);
  const float* depth_data = depth.data();
  const int depth_pitch = depth.pitch();

  const bool use_simd =
      path == KernelPath::kSimd || (path == KernelPath::kAuto && s::kEnabled);

  // Scalar mirror of one SIMD lane: same fmadd/min shapes, same truncating
  // float->int conversion. Used by the scalar path and the ragged row tail.
  const auto update_voxel = [&](int xi, float Kx, float Ky, float Kz,
                                std::size_t base) {
    const float wx = (static_cast<float>(xi) + 0.5f) * voxel_f;
    const float cx = s::fmadd_s(r00, wx, Kx);
    const float cy = s::fmadd_s(r10, wx, Ky);
    const float cz = s::fmadd_s(r20, wx, Kz);
    if (cz <= 1e-6f) return;  // Behind the camera.
    // Project; nearest-neighbor depth lookup as in KFusion.
    const float uf = s::fmadd_s(fx, cx / cz, cx0);
    const float vf = s::fmadd_s(fy, cy / cz, cy0);
    if (uf < 0.0f || vf < 0.0f || uf >= width_f || vf >= height_f) return;
    const int u = static_cast<int>(uf);
    const int v = static_cast<int>(vf);
    const float measured =
        depth_data[static_cast<std::size_t>(v) *
                       static_cast<std::size_t>(depth_pitch) +
                   static_cast<std::size_t>(u)];
    if (measured <= 0.0f) return;
    // Signed distance along the ray, point-to-plane approximation.
    const float sdf = measured - cz;
    if (sdf < -mu_f) return;  // Occluded beyond truncation.
    const float truncated = s::min_s(1.0f, sdf * inv_mu);
    const float t_old = tsdf_[base];
    const float w_old = weight_[base];
    tsdf_[base] = s::fmadd_s(t_old, w_old, truncated) / (w_old + 1.0f);
    weight_[base] = s::min_s(w_old + 1.0f, max_weight);
  };

  const s::vfloat r00B = s::vbroadcast(r00), r10B = s::vbroadcast(r10),
                  r20B = s::vbroadcast(r20);
  const s::vfloat fxB = s::vbroadcast(fx), fyB = s::vbroadcast(fy);
  const s::vfloat cx0B = s::vbroadcast(cx0), cy0B = s::vbroadcast(cy0);
  const s::vfloat widthB = s::vbroadcast(width_f), heightB = s::vbroadcast(height_f);
  const s::vfloat zeroB = s::vzero(), oneB = s::vbroadcast(1.0f);
  const s::vfloat halfB = s::vbroadcast(0.5f), voxelB = s::vbroadcast(voxel_f);
  const s::vfloat epsB = s::vbroadcast(1e-6f), neg_muB = s::vbroadcast(-mu_f);
  const s::vfloat inv_muB = s::vbroadcast(inv_mu), maxwB = s::vbroadcast(max_weight);
  const s::vint pitchB = s::vbroadcast_i(depth_pitch);
  const s::vfloat iota = s::viota();

  // kWidth voxels along x per iteration over [xs, xe]. Invalid lanes are
  // masked out of the depth gather and blended back to their old voxel
  // values; stores are full-width but stay inside the row (xe bounds the
  // group) and each parallel chunk owns whole z-slices, so no write crosses
  // a chunk.
  const auto integrate_row_simd = [&](float Kx, float Ky, float Kz, int xs,
                                      int xe, std::size_t row_base) {
    const s::vfloat KxB = s::vbroadcast(Kx);
    const s::vfloat KyB = s::vbroadcast(Ky);
    const s::vfloat KzB = s::vbroadcast(Kz);
    int xi = xs;
    std::size_t base = row_base;
    for (; xi + s::kWidth <= xe + 1; xi += s::kWidth, base += s::kWidth) {
      const s::vfloat xi_f = iota + s::vbroadcast(static_cast<float>(xi));
      const s::vfloat wx = (xi_f + halfB) * voxelB;
      const s::vfloat cx = s::vfma(r00B, wx, KxB);
      const s::vfloat cy = s::vfma(r10B, wx, KyB);
      const s::vfloat cz = s::vfma(r20B, wx, KzB);
      s::vmask valid = s::cmp_gt(cz, epsB);
      if (s::mask_none(valid)) continue;
      // Lanes with cz ~ 0 produce inf/NaN here; the bounds compares reject
      // them (NaN compares false), and the gather never dereferences them.
      const s::vfloat uf = s::vfma(fxB, cx / cz, cx0B);
      const s::vfloat vf = s::vfma(fyB, cy / cz, cy0B);
      valid = s::mask_and(valid, s::cmp_ge(uf, zeroB));
      valid = s::mask_and(valid, s::cmp_ge(vf, zeroB));
      valid = s::mask_and(valid, s::cmp_lt(uf, widthB));
      valid = s::mask_and(valid, s::cmp_lt(vf, heightB));
      const s::vint u_i = s::vtrunc_i(uf);
      const s::vint v_i = s::vtrunc_i(vf);
      const s::vint idx = s::vadd_i(s::vmul_i(v_i, pitchB), u_i);
      const s::vfloat measured = s::vgather_masked(depth_data, idx, valid);
      valid = s::mask_and(valid, s::cmp_gt(measured, zeroB));
      const s::vfloat sdf = measured - cz;
      valid = s::mask_and(valid, s::cmp_ge(sdf, neg_muB));
      if (s::mask_none(valid)) continue;
      const s::vfloat truncated = s::vmin(oneB, sdf * inv_muB);
      float* tsdf_ptr = tsdf_.get() + base;
      float* weight_ptr = weight_.get() + base;
      const s::vfloat t_old = s::vload(tsdf_ptr);
      const s::vfloat w_old = s::vload(weight_ptr);
      const s::vfloat t_new = s::vfma(t_old, w_old, truncated) / (w_old + oneB);
      const s::vfloat w_new = s::vmin(w_old + oneB, maxwB);
      s::vstore(tsdf_ptr, s::vselect(valid, t_new, t_old));
      s::vstore(weight_ptr, s::vselect(valid, w_new, w_old));
    }
    for (; xi <= xe; ++xi, ++base) {
      update_voxel(xi, Kx, Ky, Kz, base);
    }
  };

  // Row clipping (DESIGN.md §9). Along a row only wx varies, and each
  // per-voxel test is, after multiplying the projection by cz > 0, the sign
  // of a function linear in wx: cz - 1e-6, fx*cx + c*cz for c = cx0 and
  // cx0 - width, and the same in y. Those functions are evaluated here in
  // double from the float constants the voxel loop uses (float products are
  // exact in double), and a voxel passing the float tests satisfies each
  // one up to its float rounding error. kClipSlack bounds that error
  // relative to the magnitudes of the terms; it is ~1000x the few roundings
  // in the chain, so the interval below, widened by one more voxel on each
  // side, holds every voxel the tests can accept.
  constexpr double kClipSlack = 1e-4;
  const double voxel_d = voxel_f;
  const double wx_max = (static_cast<double>(x1) + 1.0) * voxel_d;
  const double eps_z = static_cast<double>(1e-6f);
  const double cu0 = cx0, cu1 = static_cast<double>(cx0) - width_f;
  const double cv0 = cy0, cv1 = static_cast<double>(cy0) - height_f;
  const double au0 = static_cast<double>(fx) * r00 + cu0 * r20;
  const double au1 = static_cast<double>(fx) * r00 + cu1 * r20;
  const double av0 = static_cast<double>(fy) * r10 + cv0 * r20;
  const double av1 = static_cast<double>(fy) * r10 + cv1 * r20;
  const double cu_max = std::max(std::fabs(cu0), std::fabs(cu1));
  const double cv_max = std::max(std::fabs(cv0), std::fabs(cv1));
  const auto clip_row = [&](float Kx, float Ky, float Kz, int& xs, int& xe) {
    const double mx = std::fabs(static_cast<double>(r00)) * wx_max + std::fabs(Kx);
    const double my = std::fabs(static_cast<double>(r10)) * wx_max + std::fabs(Ky);
    const double mz =
        std::fabs(static_cast<double>(r20)) * wx_max + std::fabs(Kz) + eps_z;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    // Keeps the wx where a*wx + b >= -tol.
    const auto keep = [&](double a, double b, double tol) {
      if (a > 0.0) {
        lo = std::max(lo, (-tol - b) / a);
      } else if (a < 0.0) {
        hi = std::min(hi, (-tol - b) / a);
      } else if (b < -tol) {
        lo = std::numeric_limits<double>::infinity();
      }
    };
    const double tol_u = kClipSlack * (std::fabs(fx) * mx + cu_max * mz);
    const double tol_v = kClipSlack * (std::fabs(fy) * my + cv_max * mz);
    const double bu = static_cast<double>(fx) * Kx;
    const double bv = static_cast<double>(fy) * Ky;
    keep(r20, Kz - eps_z, kClipSlack * mz);                 // cz > 1e-6
    keep(au0, bu + cu0 * Kz, tol_u);                        // uf >= 0
    keep(-au1, -(bu + cu1 * Kz), tol_u);                    // uf < width
    keep(av0, bv + cv0 * Kz, tol_v);                        // vf >= 0
    keep(-av1, -(bv + cv1 * Kz), tol_v);                    // vf < height
    // wx = (xi + 0.5) * voxel; NaN keeps the whole row.
    const double first = std::ceil(lo / voxel_d - 0.5) - 1.0;
    const double last = std::floor(hi / voxel_d - 0.5) + 1.0;
    xs = !(first > x0) ? x0 : first > x1 ? x1 + 1 : static_cast<int>(first);
    xe = !(last < x1) ? x1 : last < x0 ? x0 - 1 : static_cast<int>(last);
  };

  auto integrate_slices = [&](std::size_t z_begin, std::size_t z_end,
                              std::uint64_t local_visited) {
    const auto row_len = static_cast<std::uint64_t>(x1 - x0 + 1);
    for (std::size_t zi = z_begin; zi < z_end; ++zi) {
      const float wz = (static_cast<float>(zi) + 0.5f) * voxel_f;
      for (int yi = y0; yi <= y1; ++yi) {
        const float wy = (static_cast<float>(yi) + 0.5f) * voxel_f;
        // Per-row camera-space constants: c = R*(wx, wy, wz) + t with the
        // wx term left for the inner loop. Computed once in scalar float,
        // broadcast into the vector path.
        const float Kx = s::fmadd_s(r01, wy, s::fmadd_s(r02, wz, tx));
        const float Ky = s::fmadd_s(r11, wy, s::fmadd_s(r12, wz, ty));
        const float Kz = s::fmadd_s(r21, wy, s::fmadd_s(r22, wz, tz));
        // The device model's work is the whole bounding-box row.
        local_visited += row_len;
        int xs = x0, xe = x1;
        clip_row(Kx, Ky, Kz, xs, xe);
        if (xs > xe) continue;
        const std::size_t row_base = index(xs, yi, static_cast<int>(zi));
        if (use_simd) {
          integrate_row_simd(Kx, Ky, Kz, xs, xe, row_base);
        } else {
          std::size_t base = row_base;
          for (int xi = xs; xi <= xe; ++xi, ++base) {
            update_voxel(xi, Kx, Ky, Kz, base);
          }
        }
      }
    }
    return local_visited;
  };

  // Writes go to disjoint z-slices per chunk; only the visited counter needs
  // reducing. Fixed grain: chunk boundaries must not depend on thread count.
  const std::uint64_t visited = hm::common::parallel_reduce(
      pool, static_cast<std::size_t>(z0), static_cast<std::size_t>(z1) + 1,
      std::uint64_t{0}, integrate_slices,
      [](std::uint64_t a, std::uint64_t b) { return a + b; },
      /*grain=*/2);
  stats.add(Kernel::kIntegrate, visited);
}

std::optional<float> TsdfVolume::sample(Vec3d world) const {
  // Convert to continuous voxel coordinates (voxel centers at +0.5).
  const double gx = world.x / voxel_size_ - 0.5;
  const double gy = world.y / voxel_size_ - 0.5;
  const double gz = world.z / voxel_size_ - 0.5;
  const int x0 = static_cast<int>(std::floor(gx));
  const int y0 = static_cast<int>(std::floor(gy));
  const int z0 = static_cast<int>(std::floor(gz));
  if (x0 < 0 || y0 < 0 || z0 < 0 || x0 + 1 >= resolution_ ||
      y0 + 1 >= resolution_ || z0 + 1 >= resolution_) {
    return std::nullopt;
  }
  const double fx = gx - x0, fy = gy - y0, fz = gz - z0;
  double value = 0.0;
  for (int dz = 0; dz < 2; ++dz) {
    for (int dy = 0; dy < 2; ++dy) {
      for (int dx = 0; dx < 2; ++dx) {
        const std::size_t i = index(x0 + dx, y0 + dy, z0 + dz);
        if (weight_[i] <= 0.0f) return std::nullopt;
        const double w = (dx != 0 ? fx : 1.0 - fx) * (dy != 0 ? fy : 1.0 - fy) *
                         (dz != 0 ? fz : 1.0 - fz);
        value += w * static_cast<double>(tsdf_[i]);
      }
    }
  }
  return static_cast<float>(value);
}

namespace {

/// Continuous voxel coordinates of a world coordinate (voxel centers at
/// +0.5). Shared by sample_f and leaving so both see the same cell.
float grid_coordinate(float world, float voxel_f) {
  return world / voxel_f - 0.5f;
}

struct SampleSetup {
  bool inside = false;
  int x0 = 0, y0 = 0, z0 = 0;
  float fx = 0.0f, fy = 0.0f, fz = 0.0f;
};

SampleSetup sample_setup(Vec3f world, float voxel_f, int resolution) {
  SampleSetup out;
  const float gx = grid_coordinate(world.x, voxel_f);
  const float gy = grid_coordinate(world.y, voxel_f);
  const float gz = grid_coordinate(world.z, voxel_f);
  const float fgx = std::floor(gx);
  const float fgy = std::floor(gy);
  const float fgz = std::floor(gz);
  // Bounds-check in float before any int conversion (NaN compares false).
  const float max_cell = static_cast<float>(resolution - 2);
  if (!(fgx >= 0.0f && fgx <= max_cell && fgy >= 0.0f && fgy <= max_cell &&
        fgz >= 0.0f && fgz <= max_cell)) {
    return out;
  }
  out.inside = true;
  out.x0 = static_cast<int>(fgx);
  out.y0 = static_cast<int>(fgy);
  out.z0 = static_cast<int>(fgz);
  out.fx = gx - fgx;
  out.fy = gy - fgy;
  out.fz = gz - fgz;
  return out;
}

}  // namespace

std::optional<float> TsdfVolume::sample_f(Vec3f world) const {
  const SampleSetup c =
      sample_setup(world, static_cast<float>(voxel_size_), resolution_);
  if (!c.inside) return std::nullopt;
  const std::size_t base = index(c.x0, c.y0, c.z0);
  // Fixed corner order, (wx*wy)*wz product shape and a sequential sum: the
  // raycast's step counts and hit points depend on these exact bits.
  float value = 0.0f;
  for (int corner = 0; corner < 8; ++corner) {
    const std::size_t i = base + corner_offsets_[static_cast<std::size_t>(corner)];
    if (weight_[i] <= 0.0f) return std::nullopt;
    const float wx = (corner & 1) != 0 ? c.fx : 1.0f - c.fx;
    const float wy = (corner & 2) != 0 ? c.fy : 1.0f - c.fy;
    const float wz = (corner & 4) != 0 ? c.fz : 1.0f - c.fz;
    const float w = (wx * wy) * wz;
    value = value + w * tsdf_[i];
  }
  return value;
}

bool TsdfVolume::leaving(Vec3f world, Vec3f direction) const {
  // floor(grid_coordinate(origin + direction * t)) is monotone in t under
  // IEEE rounding, non-decreasing where direction >= 0 and non-increasing
  // where direction <= 0, so a cell index past an edge of sample_setup's
  // range stays past it while the ray moves away (DESIGN.md §9).
  const auto voxel_f = static_cast<float>(voxel_size_);
  const float max_cell = static_cast<float>(resolution_ - 2);
  const auto past = [&](float w, float d) {
    const float cell = std::floor(grid_coordinate(w, voxel_f));
    return (cell > max_cell && d >= 0.0f) || (cell < 0.0f && d <= 0.0f);
  };
  return past(world.x, direction.x) || past(world.y, direction.y) ||
         past(world.z, direction.z);
}

std::optional<Vec3f> TsdfVolume::gradient(Vec3d world) const {
  const double h = voxel_size_;
  const auto xp = sample({world.x + h, world.y, world.z});
  const auto xm = sample({world.x - h, world.y, world.z});
  const auto yp = sample({world.x, world.y + h, world.z});
  const auto ym = sample({world.x, world.y - h, world.z});
  const auto zp = sample({world.x, world.y, world.z + h});
  const auto zm = sample({world.x, world.y, world.z - h});
  if (!xp || !xm || !yp || !ym || !zp || !zm) return std::nullopt;
  return Vec3f{*xp - *xm, *yp - *ym, *zp - *zm};
}

std::optional<Vec3f> TsdfVolume::gradient_f(Vec3f world) const {
  const float h = voxel_size_f();
  const auto xp = sample_f({world.x + h, world.y, world.z});
  const auto xm = sample_f({world.x - h, world.y, world.z});
  const auto yp = sample_f({world.x, world.y + h, world.z});
  const auto ym = sample_f({world.x, world.y - h, world.z});
  const auto zp = sample_f({world.x, world.y, world.z + h});
  const auto zm = sample_f({world.x, world.y, world.z - h});
  if (!xp || !xm || !yp || !ym || !zp || !zm) return std::nullopt;
  return Vec3f{*xp - *xm, *yp - *ym, *zp - *zm};
}

float TsdfVolume::tsdf_at(int x, int y, int z) const {
  assert(x >= 0 && y >= 0 && z >= 0 && x < resolution_ && y < resolution_ &&
         z < resolution_);
  const std::size_t i = index(x, y, z);
  // Unobserved voxels keep their zero page; they read as free space.
  return weight_[i] > 0.0f ? tsdf_[i] : 1.0f;
}

float TsdfVolume::weight_at(int x, int y, int z) const {
  assert(x >= 0 && y >= 0 && z >= 0 && x < resolution_ && y < resolution_ &&
         z < resolution_);
  return weight_[index(x, y, z)];
}

double TsdfVolume::occupancy() const {
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < voxel_count_; ++i) {
    occupied += weight_[i] > 0.0f ? 1 : 0;
  }
  return static_cast<double>(occupied) / static_cast<double>(voxel_count_);
}

}  // namespace hm::kfusion
