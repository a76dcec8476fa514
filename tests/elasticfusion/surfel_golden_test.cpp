// Golden values and exactness cases for SurfelMap's association index.
//
// The golden cases fuse a fixed rendered sequence at its ground-truth poses,
// with `prune` between frames and `project` at the end, and pin the exact
// Kernel::kSurfelFusion count, the surfel count, a digest of every surfel
// field in index order and a digest of the projected ModelView. The input
// maps come from the raw rendered depth through `build_pyramid`, neither of
// which uses the SIMD layer, so one value set holds for every backend and
// fma mode (the suite carries the "simd" label, so the -DHM_SIMD=OFF
// configure checks that too).
//
// The hand-built cases pin the three facts fusion results depend on: the
// candidate visit order (cells in (dz, dy, dx) order, a bucket in insertion
// order, a moved surfel erased in place and appended to its new cell), the
// op count (the 27 bucket sizes plus one per pixel) and cell identity (the
// wrapped 21-bit cell coordinates). Any change to the index that is meant
// to leave results alone must leave this file untouched.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <vector>

#include "dataset/sequence.hpp"
#include "elasticfusion/surfel_map.hpp"
#include "kfusion/pyramid.hpp"

namespace hm::elasticfusion {
namespace {

using hm::geometry::IntensityImage;
using hm::geometry::NormalMap;
using hm::geometry::VertexMap;

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
  std::uint64_t fusion_ops;
  std::size_t surfels;
  std::uint64_t surfel_digest;
  std::uint64_t view_digest;
};

struct GoldenCase {
  double cell_size;
  double association_distance;
  double world_offset;  ///< Added to every pose's translation (each axis).
  std::uint32_t prune_max_age;
  double confidence_threshold;
  Pinned pinned;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << "cell" << c.cell_size << "_gate" << c.association_distance
      << "_offset" << c.world_offset << "_age" << c.prune_max_age;
}

constexpr std::size_t kFrames = 12;

const hm::dataset::RGBDSequence& sequence() {
  static const auto instance =
      hm::dataset::make_benchmark_sequence(kFrames, 80, 60, nullptr, true);
  return *instance;
}

class SurfelGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SurfelGolden, CountsAndDigestsArePinned) {
  const GoldenCase& param = GetParam();
  SurfelMap map(param.cell_size);
  SurfelMap::FusionParams fusion;
  fusion.association_distance = param.association_distance;
  KernelStats stats, scratch;
  SE3 pose;
  for (std::size_t i = 0; i < sequence().frame_count(); ++i) {
    const auto& frame = sequence().frame(i);
    const auto pyramid = hm::kfusion::build_pyramid(
        frame.depth, sequence().intrinsics(), 1, scratch);
    pose = frame.ground_truth_pose;
    pose.translation = pose.translation + Vec3d{param.world_offset,
                                                param.world_offset,
                                                param.world_offset};
    const auto index = static_cast<std::uint32_t>(i);
    map.fuse(pyramid[0].vertices, pyramid[0].normals, frame.intensity, pose,
             index, fusion, stats);
    (void)map.prune(index, param.prune_max_age, param.confidence_threshold,
                    stats);
  }
  const ModelView view =
      map.project(sequence().intrinsics(), pose, param.confidence_threshold,
                  static_cast<std::uint32_t>(kFrames - 1), 2, stats);

  Digest surfels;
  for (const Surfel& s : map.surfels()) {
    surfels.add(s.position);
    surfels.add(s.normal);
    surfels.add(s.intensity);
    surfels.add(s.radius);
    surfels.add(s.confidence);
    surfels.add(s.last_seen);
  }
  Digest maps;
  for (int v = 0; v < view.vertices.height(); ++v) {
    for (int u = 0; u < view.vertices.width(); ++u) {
      maps.add(view.vertices.at(u, v));
      maps.add(view.normals.at(u, v));
      maps.add(view.intensity.at(u, v));
    }
  }

  EXPECT_EQ(stats.count(Kernel::kSurfelFusion), param.pinned.fusion_ops);
  EXPECT_EQ(map.size(), param.pinned.surfels);
  EXPECT_EQ(surfels.value(), param.pinned.surfel_digest);
  EXPECT_EQ(maps.value(), param.pinned.view_digest);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SurfelGolden,
    ::testing::Values(
        GoldenCase{0.05, 0.04, 0.0, 3, 3.0,
                   {462886ull, 3732u, 0xf9dd94f034642fdcull, 0x2c2e80bd4f28131aull}},
        GoldenCase{0.02, 0.03, 0.0, 1, 2.0,
                   {180054ull, 5076u, 0xf43da05f7ac7e60full, 0xbcab9e4c26d49c81ull}},
        GoldenCase{0.1, 0.08, 0.0, 6, 5.0,
                   {498496ull, 1263u, 0xc2b7d82ffbb4d24cull, 0xaa7967a7abc89f69ull}},
        GoldenCase{0.05, 0.04, -3.01, 3, 3.0,
                   {459982ull, 3732u, 0x08e46ed47ca73bf0ull, 0xf907e220da5a2597ull}}));

// --- Hand-built cases. Cells are 1 m wide, every point faces the camera
// along -z at the identity pose, and all coordinates are exact binary
// fractions, so every distance below is exact. ---

/// Fuses `points` (one pixel each, in order) and returns the frame's
/// Kernel::kSurfelFusion count.
std::uint64_t fuse_points(SurfelMap& map, const std::vector<Vec3f>& points,
                          double gate, std::uint32_t frame = 0) {
  const int width = static_cast<int>(points.size());
  VertexMap vertices(width, 1, Vec3f{});
  NormalMap normals(width, 1, Vec3f{});
  for (int u = 0; u < width; ++u) {
    vertices.set(u, 0, points[static_cast<std::size_t>(u)]);
    normals.set(u, 0, Vec3f{0, 0, -1});
  }
  SurfelMap::FusionParams params;
  params.association_distance = gate;
  KernelStats stats;
  map.fuse(vertices, normals, IntensityImage{}, SE3{}, frame, params, stats);
  return stats.count(Kernel::kSurfelFusion);
}

float confidence(const SurfelMap& map, std::size_t index) {
  return map.surfels()[index].confidence;
}

/// Two candidates at the same distance from the query in two cells: the
/// earlier cell in (dz, dy, dx) order wins, even though its surfel was
/// inserted second (higher index).
TEST(SurfelExactness, DistanceTieGoesToFirstCellInVisitOrder) {
  struct Tie {
    Vec3f later;    ///< In the cell visited later; inserted first.
    Vec3f earlier;  ///< In the cell visited earlier; inserted second.
  };
  const Vec3f query{1.25f, 1.25f, 1.25f};
  const Tie ties[] = {
      {{1.75f, 1.25f, 1.25f}, {0.75f, 1.25f, 1.25f}},  // dx=0 vs dx=-1
      {{0.75f, 1.25f, 1.25f}, {1.25f, 0.75f, 1.25f}},  // dx=-1 vs dy=-1
      {{1.25f, 0.75f, 1.25f}, {1.25f, 1.25f, 0.75f}},  // dy=-1 vs dz=-1
  };
  for (const Tie& tie : ties) {
    SurfelMap map(1.0);
    // The two candidates are 1 or sqrt(0.5) m apart: beyond the 0.6 m
    // gate, so both become surfels.
    EXPECT_EQ(fuse_points(map, {tie.later, tie.earlier}, 0.6), 3u);
    ASSERT_EQ(map.size(), 2u);
    fuse_points(map, {query}, 0.6, 1);
    ASSERT_EQ(map.size(), 2u);
    EXPECT_EQ(confidence(map, 0), 1.0f);
    EXPECT_EQ(confidence(map, 1), 2.0f);
  }
}

/// Two candidates at the same distance in one cell: the one inserted into
/// the bucket first wins.
TEST(SurfelExactness, DistanceTieInOneCellGoesToBucketOrder) {
  SurfelMap map(1.0);
  fuse_points(map, {{1.5f, 1.25f, 1.5f}, {1.5f, 1.75f, 1.5f}}, 0.3);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(fuse_points(map, {{1.5f, 1.5f, 1.5f}}, 0.3, 1), 3u);
  EXPECT_EQ(confidence(map, 0), 2.0f);
  EXPECT_EQ(confidence(map, 1), 1.0f);
}

/// A surfel that moves into a cell is appended to its bucket: it loses a tie
/// to a surfel already there, although its index is lower.
TEST(SurfelExactness, SurfelEnteringACellIsAppended) {
  SurfelMap map(1.0);
  // Index 0 in cell x=0, index 1 in cell x=1.
  fuse_points(map, {{0.875f, 1.5f, 1.5f}, {1.5f, 1.5f, 1.5f}}, 0.3);
  ASSERT_EQ(map.size(), 2u);
  // Pull index 0 to x = 1.0, into cell x=1 (index 1 is beyond the gate).
  EXPECT_EQ(fuse_points(map, {{1.125f, 1.5f, 1.5f}}, 0.3, 1), 3u);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.surfels()[0].position.x, 1.0f);
  // Equidistant query (x = 1.25): bucket order [1, 0] picks index 1.
  EXPECT_EQ(fuse_points(map, {{1.25f, 1.5f, 1.5f}}, 0.3, 2), 3u);
  EXPECT_EQ(confidence(map, 0), 2.0f);
  EXPECT_EQ(confidence(map, 1), 2.0f);
  EXPECT_EQ(map.surfels()[1].position.x, 1.375f);
}

/// `prune` rebuilds every bucket in surfel-index order.
TEST(SurfelExactness, PruneRebuildsBucketsInIndexOrder) {
  SurfelMap map(1.0);
  // As above: index 0 moves into cell x=1, whose bucket becomes [1, 0].
  fuse_points(map, {{0.875f, 1.5f, 1.5f}, {1.5f, 1.5f, 1.5f}}, 0.3, 10);
  fuse_points(map, {{1.125f, 1.5f, 1.5f}}, 0.3, 10);
  fuse_points(map, {{20.5f, 1.5f, 1.5f}}, 0.3, 0);  // Stale: pruned below.
  ASSERT_EQ(map.size(), 3u);
  KernelStats stats;
  ASSERT_EQ(map.prune(10, 5, 1.5, stats), 1u);
  ASSERT_EQ(map.size(), 2u);
  // The rebuilt bucket is [0, 1]: the equidistant query now picks index 0.
  EXPECT_EQ(fuse_points(map, {{1.25f, 1.5f, 1.5f}}, 0.3, 11), 3u);
  EXPECT_EQ(confidence(map, 0), 3.0f);
  EXPECT_EQ(confidence(map, 1), 1.0f);
}

/// A surfel that leaves a cell is erased in place: the survivors keep their
/// relative order.
TEST(SurfelExactness, SurfelLeavingACellIsErasedInPlace) {
  SurfelMap map(1.0);
  // Bucket of cell x=1: [P, Q, R], 0.375 m apart (beyond the 0.3 m gate).
  fuse_points(map, {{1.125f, 1.5f, 1.5f}, {1.5f, 1.5f, 1.5f},
                    {1.875f, 1.5f, 1.5f}},
              0.3);
  ASSERT_EQ(map.size(), 3u);
  // Pull P out to x = 0.9875, into cell x=0.
  fuse_points(map, {{0.85f, 1.5f, 1.5f}}, 0.3, 1);
  ASSERT_EQ(map.size(), 3u);
  ASSERT_LT(map.surfels()[0].position.x, 1.0f);
  // Q and R tie for the query at their midpoint; Q still comes first.
  EXPECT_EQ(fuse_points(map, {{1.6875f, 1.5f, 1.5f}}, 0.3, 2), 4u);
  EXPECT_EQ(confidence(map, 1), 2.0f);
  EXPECT_EQ(confidence(map, 2), 1.0f);
}

/// Updates that carry a surfel across a cell boundary, across a 16-cell
/// block boundary and across zero: the op counts show it is found in its new
/// cell and no longer in its old one.
TEST(SurfelExactness, MovedSurfelIsIndexedInItsNewCellOnly) {
  struct Move {
    float start;  ///< x of the surfel.
    float pull;   ///< x of the observation that moves it.
    float stale;  ///< A point whose neighbourhood holds only the old cell.
    float fresh;  ///< A point close to the moved surfel.
  };
  const Move moves[] = {
      {14.75f, 15.5f, 13.5f, 15.25f},   // cell 14 -> 15, inside a block
      {15.75f, 16.5f, 14.5f, 16.25f},   // cell 15 -> 16, across a block edge
      {0.25f, -0.5f, 1.5f, -0.25f},     // cell 0 -> -1, across zero
      {-15.75f, -16.5f, -14.5f, -16.25f},  // cell -16 -> -17
  };
  for (const Move& move : moves) {
    SurfelMap map(1.0);
    fuse_points(map, {{move.start, 8.5f, 8.5f}}, 1.0);
    EXPECT_EQ(fuse_points(map, {{move.pull, 8.5f, 8.5f}}, 1.0, 1), 2u);
    ASSERT_EQ(map.size(), 1u);
    ASSERT_EQ(confidence(map, 0), 2.0f);
    // The stale point's 27 cells hold nothing now: it becomes a new surfel.
    EXPECT_EQ(fuse_points(map, {{move.stale, 8.5f, 8.5f}}, 0.25, 2), 1u);
    EXPECT_EQ(map.size(), 2u);
    // The moved surfel is a candidate (with the stale surfel two cells
    // away, out of reach) and absorbs the fresh point.
    EXPECT_EQ(fuse_points(map, {{move.fresh, 8.5f, 8.5f}}, 1.0, 3), 2u);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(confidence(map, 0), 3.0f);
  }
}

/// Negative cell coordinates on every axis: neighbourhoods span the cells
/// on both sides of zero, and fusion merges there as anywhere else.
TEST(SurfelExactness, NegativeCellCoordinates) {
  SurfelMap map(1.0);
  // One fuse: each of the four near points sees the earlier ones as
  // candidates but is beyond the 0.3 m gate; the fifth is 33 cells away.
  const std::vector<Vec3f> points = {
      {-0.5f, -0.5f, -0.5f}, {0.25f, -0.5f, -0.5f}, {-0.5f, 0.25f, -0.5f},
      {-0.5f, -0.5f, 0.25f}, {-33.5f, -0.5f, -0.5f}};
  EXPECT_EQ(fuse_points(map, points, 0.3), 1u + 2u + 3u + 4u + 1u);
  ASSERT_EQ(map.size(), 5u);
  // A query in cell (-1,-1,-1) sees all four near surfels, merges the
  // closest one (index 0) and never the far one.
  EXPECT_EQ(fuse_points(map, {{-0.375f, -0.5f, -0.5f}}, 0.3, 1), 5u);
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(confidence(map, 0), 2.0f);
  EXPECT_EQ(map.surfels()[0].position.x, -0.4375f);
  EXPECT_EQ(fuse_points(map, {{-33.25f, -0.5f, -0.5f}}, 0.3, 2), 2u);
  EXPECT_EQ(confidence(map, 4), 2.0f);
}

/// Cell coordinates wrap at 2^21 cells per axis: a surfel 2^21 cells away
/// shares a cell with one at the origin, so it is counted as a candidate
/// (and rejected by distance).
TEST(SurfelExactness, CellCoordinatesWrapAt21Bits) {
  SurfelMap map(1.0);
  fuse_points(map, {{2097152.5f, 0.5f, 0.5f}}, 0.3);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(fuse_points(map, {{1.5f, 0.5f, 0.5f}}, 0.3, 1), 2u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(fuse_points(map, {{-2097151.5f, 0.5f, 0.5f}}, 0.3, 2), 3u);
  EXPECT_EQ(map.size(), 3u);
}

}  // namespace
}  // namespace hm::elasticfusion
