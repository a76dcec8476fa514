// Surfel-based map: ElasticFusion's environment representation. Surfels are
// fused with confidence-weighted averaging; association searches a uniform
// cell grid. Surfels above the confidence threshold form the "stable" model
// that tracking and loop closure register against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/camera.hpp"
#include "geometry/image.hpp"
#include "geometry/se3.hpp"
#include "geometry/soa.hpp"
#include "kfusion/kernel_stats.hpp"

namespace hm::elasticfusion {

using hm::geometry::Intrinsics;
using hm::geometry::SE3;
using hm::geometry::Vec3d;
using hm::geometry::Vec3f;
using hm::kfusion::Kernel;
using hm::kfusion::KernelStats;

struct Surfel {
  Vec3f position;      ///< World space.
  Vec3f normal;        ///< Unit, world space.
  float intensity = 0.0f;
  float radius = 0.0f;       ///< Disc radius (m), from pixel footprint.
  float confidence = 0.0f;
  std::uint32_t last_seen = 0;  ///< Frame index of the last fusion.
};

/// Model maps produced by projecting the stable surfels into a camera.
struct ModelView {
  hm::geometry::VertexMap vertices;     ///< World space; zero = empty.
  hm::geometry::NormalMap normals;      ///< World space; zero = empty.
  hm::geometry::IntensityImage intensity;  ///< -1 marks empty pixels.
};

class SurfelMap {
 public:
  /// `cell_size`: association cell edge (m); association searches the
  /// 3x3x3 neighborhood of a point's cell.
  explicit SurfelMap(double cell_size = 0.05);

  [[nodiscard]] std::size_t size() const noexcept { return surfels_.size(); }
  [[nodiscard]] const std::vector<Surfel>& surfels() const noexcept {
    return surfels_;
  }

  /// Number of surfels at or above the given confidence.
  [[nodiscard]] std::size_t stable_count(double confidence_threshold) const;

  struct FusionParams {
    double association_distance = 0.04;  ///< Max merge distance (m).
    double normal_agreement = 0.7;       ///< Min cosine for merging.
    float max_confidence = 80.0f;
  };

  /// Fuses one frame: for every valid pixel, either updates a matching
  /// surfel or inserts a new one. `vertices`/`normals` are camera-space
  /// maps of the input frame; `intensity` may be empty.
  /// Association and update work is counted as Kernel::kSurfelFusion.
  void fuse(const hm::geometry::VertexMap& vertices,
            const hm::geometry::NormalMap& normals,
            const hm::geometry::IntensityImage& intensity, const SE3& pose,
            std::uint32_t frame_index, const FusionParams& params,
            KernelStats& stats);

  /// Projects the *active* model into the camera with z-buffering: stable
  /// surfels (confidence >= threshold) plus — as in ElasticFusion's
  /// time-windowed active model — unstable surfels observed within
  /// `unstable_window` frames of `current_frame` (0 = stable only).
  /// Projection work is counted as Kernel::kSurfelFusion.
  [[nodiscard]] ModelView project(const Intrinsics& intrinsics, const SE3& pose,
                                  double confidence_threshold,
                                  std::uint32_t current_frame,
                                  std::uint32_t unstable_window,
                                  KernelStats& stats) const;

  /// Map maintenance, after ElasticFusion's cleanup: removes surfels that
  /// never reached `confidence_threshold` and have not been observed within
  /// `max_age` frames of `current_frame` (stale unstable points, typically
  /// sensor noise). Returns the number removed. Work is counted as
  /// Kernel::kSurfelFusion.
  std::size_t prune(std::uint32_t current_frame, std::uint32_t max_age,
                    double confidence_threshold, KernelStats& stats);

 private:
  // The association index: each cell holds a bucket of surfel indices in
  // a fixed order (insertion order; a surfel leaving a cell is erased in
  // place, one entering it is appended, and `prune` rebuilds every bucket
  // in surfel-index order), because `fuse` visits candidates
  // in (dz, dy, dx) cell order and then bucket order, and the first of
  // equally distant candidates wins. Cells are named by the wrapped 21-bit
  // coordinates below, so far-out points share cells deterministically.
  // Two levels: a flat open-addressing table maps a block of 16^3 cells to
  // its slice of `buckets_` (x-fastest, so a cell row is contiguous), and
  // each bucket is a run of `pool_`. See DESIGN.md §9.
  static constexpr std::uint32_t kCoordMask = (1u << 21) - 1;
  static constexpr std::uint32_t kBlockBits = 4;
  static constexpr std::uint32_t kBlockEdge = 1u << kBlockBits;
  static constexpr std::uint32_t kBlockCells = kBlockEdge * kBlockEdge * kBlockEdge;
  static constexpr std::uint32_t kNone = ~0u;
  static constexpr std::uint64_t kNoKey = ~0ull;

  /// Wrapped cell coordinates, each in [0, 2^21).
  struct Cell {
    std::uint32_t x, y, z;
  };
  /// The smallest pool run a bucket gets; few buckets ever outgrow it.
  static constexpr std::uint32_t kMinBucketCapacity = 4;
  /// The pool's first run: always empty, shared by every empty bucket.
  static constexpr std::uint32_t kEmptyRun = 0;
  /// `size` surfel indices at `pool_[begin]`; the run's capacity is implied
  /// by its size (see `append`).
  struct Bucket {
    std::uint32_t begin = kEmptyRun;
    std::uint32_t size = 0;
  };
  struct BlockSlot {
    std::uint64_t key = kNoKey;
    std::uint32_t base = kNone;  ///< First bucket of the block.
  };

  [[nodiscard]] Cell cell_of(Vec3f position) const;
  static std::uint64_t block_key(std::uint32_t x, std::uint32_t y,
                                 std::uint32_t z) {
    return (std::uint64_t{x >> kBlockBits} << 34) |
           (std::uint64_t{y >> kBlockBits} << 17) | (z >> kBlockBits);
  }
  static std::uint32_t cell_in_block(std::uint32_t x, std::uint32_t y,
                                     std::uint32_t z) {
    constexpr std::uint32_t kLocal = kBlockEdge - 1;
    return (((z & kLocal) << kBlockBits | (y & kLocal)) << kBlockBits) |
           (x & kLocal);
  }
  /// A block's entry in `recent_keys_`: the parities of its x, y and z, so
  /// the 8 blocks around any block corner never evict each other.
  static std::size_t recent_slot(std::uint64_t key) {
    return (key & 1) | (key >> 16 & 2) | (key >> 32 & 4);
  }
  /// First bucket of the block `key`, or kNone; remembers the answer.
  std::uint32_t find_block(std::uint64_t key);
  /// The cell's bucket, creating its block if needed.
  std::uint32_t bucket_of(Cell cell);
  void insert_block(BlockSlot block);
  void append(std::uint32_t bucket, std::uint32_t surfel);
  void erase(std::uint32_t bucket, std::uint32_t surfel);
  void rebuild_index();

  double cell_size_;
  std::vector<Surfel> surfels_;
  std::vector<BlockSlot> table_;  ///< Power-of-two size, at most half full.
  std::vector<Bucket> buckets_;  ///< kBlockCells per block.
  std::vector<std::uint32_t> pool_;
  /// The blocks `find_block` saw last, by `recent_slot`.
  std::array<std::uint64_t, 8> recent_keys_;
  std::array<std::uint32_t, 8> recent_bases_{};
};

}  // namespace hm::elasticfusion
