#include "elasticfusion/surfel_map.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hm::elasticfusion {

namespace {

constexpr std::size_t kInitialTableSlots = 64;

/// One axis of a point's cell: floor(coordinate / cell size), wrapped to its
/// low 21 bits.
std::uint32_t wrapped_cell(float coordinate, double cell_size,
                           std::uint32_t mask) {
  const auto cell = static_cast<std::int32_t>(
      std::floor(static_cast<double>(coordinate) / cell_size));
  return static_cast<std::uint32_t>(cell) & mask;
}

/// Fibonacci hashing into a power-of-two table.
std::size_t table_slot(std::uint64_t key, std::size_t slots) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                  (64 - std::countr_zero(slots)));
}

}  // namespace

SurfelMap::SurfelMap(double cell_size)
    : cell_size_(cell_size),
      table_(kInitialTableSlots),
      pool_(kMinBucketCapacity) {
  recent_keys_.fill(kNoKey);
}

SurfelMap::Cell SurfelMap::cell_of(Vec3f position) const {
  return {wrapped_cell(position.x, cell_size_, kCoordMask),
          wrapped_cell(position.y, cell_size_, kCoordMask),
          wrapped_cell(position.z, cell_size_, kCoordMask)};
}

std::uint32_t SurfelMap::find_block(std::uint64_t key) {
  const std::size_t recent = recent_slot(key);
  if (recent_keys_[recent] == key) return recent_bases_[recent];
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = table_slot(key, table_.size());
  while (table_[slot].key != key && table_[slot].key != kNoKey) {
    slot = (slot + 1) & mask;
  }
  recent_keys_[recent] = key;
  recent_bases_[recent] = table_[slot].base;  // kNone for an empty slot.
  return recent_bases_[recent];
}

std::uint32_t SurfelMap::bucket_of(Cell cell) {
  const std::uint64_t key = block_key(cell.x, cell.y, cell.z);
  std::uint32_t base = find_block(key);
  if (base == kNone) {
    base = static_cast<std::uint32_t>(buckets_.size());
    buckets_.resize(buckets_.size() + kBlockCells);
    if (2 * (buckets_.size() / kBlockCells) > table_.size()) {
      std::vector<BlockSlot> old(2 * table_.size());
      old.swap(table_);
      for (const BlockSlot& slot : old) {
        if (slot.key != kNoKey) insert_block(slot);
      }
    }
    insert_block({key, base});
    // find_block cached the miss under `key`; replace it with the new block.
    recent_bases_[recent_slot(key)] = base;
  }
  return base + cell_in_block(cell.x, cell.y, cell.z);
}

void SurfelMap::insert_block(BlockSlot block) {
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = table_slot(block.key, table_.size());
  while (table_[slot].key != kNoKey) slot = (slot + 1) & mask;
  table_[slot] = block;
}

void SurfelMap::append(std::uint32_t bucket_index, std::uint32_t surfel) {
  Bucket& bucket = buckets_[bucket_index];
  // A run holds max(kMinBucketCapacity, bit_ceil(size)) entries, so it is
  // full when it is the shared empty run or when its size is a power of two
  // of at least kMinBucketCapacity. A full run moves to the end of the pool
  // at twice its size; the old run stays unused until the next rebuild.
  if (bucket.begin == kEmptyRun ||
      (bucket.size >= kMinBucketCapacity && std::has_single_bit(bucket.size))) {
    const auto begin = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + std::max(kMinBucketCapacity, 2 * bucket.size));
    if (bucket.size > 0) {
      std::copy_n(pool_.begin() + bucket.begin, bucket.size,
                  pool_.begin() + begin);
    }
    bucket.begin = begin;
  }
  pool_[bucket.begin + bucket.size] = surfel;
  ++bucket.size;
}

void SurfelMap::erase(std::uint32_t bucket_index, std::uint32_t surfel) {
  Bucket& bucket = buckets_[bucket_index];
  const auto run = pool_.begin() + bucket.begin;
  const auto end = run + bucket.size;
  const auto at = std::find(run, end, surfel);
  std::copy(at + 1, end, at);
  --bucket.size;
}

void SurfelMap::rebuild_index() {
  table_.assign(kInitialTableSlots, BlockSlot{});
  buckets_.clear();
  pool_.assign(kMinBucketCapacity, 0);
  recent_keys_.fill(kNoKey);
  for (std::uint32_t i = 0; i < surfels_.size(); ++i) {
    append(bucket_of(cell_of(surfels_[i].position)), i);
  }
}

std::size_t SurfelMap::stable_count(double confidence_threshold) const {
  std::size_t count = 0;
  for (const Surfel& s : surfels_) {
    count += static_cast<double>(s.confidence) >= confidence_threshold ? 1 : 0;
  }
  return count;
}

void SurfelMap::fuse(const hm::geometry::VertexMap& vertices,
                     const hm::geometry::NormalMap& normals,
                     const hm::geometry::IntensityImage& intensity,
                     const SE3& pose, std::uint32_t frame_index,
                     const FusionParams& params, KernelStats& stats) {
  const auto gate2 = static_cast<float>(params.association_distance *
                                        params.association_distance);
  const auto normal_gate = static_cast<float>(params.normal_agreement);
  std::uint64_t ops = 0;
  // Per pixel: the candidate surfels in visit order, and the bucket each
  // was found in.
  constexpr std::size_t kGatherRoom = 27 * kMinBucketCapacity;
  std::vector<std::uint32_t> candidates(kGatherRoom);
  std::vector<std::uint32_t> candidate_buckets(kGatherRoom);

  for (int v = 0; v < vertices.height(); ++v) {
    for (int u = 0; u < vertices.width(); ++u) {
      const Vec3f vertex = vertices.at(u, v);
      const Vec3f normal = normals.at(u, v);
      // hm-lint: allow(no-float-equality) exact zero is the empty-pixel sentinel
      if (vertex == Vec3f{} || normal == Vec3f{}) continue;

      const Vec3f p_world = hm::geometry::to_float(
          pose * hm::geometry::to_double(vertex));
      const Vec3f n_world = hm::geometry::to_float(
          pose.rotate(hm::geometry::to_double(normal)));
      const float pixel_intensity =
          intensity.empty() ? 0.0f : intensity.at(u, v);
      // Surfel radius ~ pixel footprint at this depth.
      const float radius = 0.01f * std::max(vertex.z, 0.3f);

      // Gather the candidates of the 3x3x3 neighborhood in (dz, dy, dx)
      // cell order, then bucket order. When x-1..x+1 lie in one block, a
      // row is three adjacent buckets behind one block lookup. Every run has
      // at least kMinBucketCapacity readable entries, so a small bucket is
      // copied whole and only its size advances the count; the buffers keep
      // room for 27 such copies past the count.
      const Cell cell = cell_of(p_world);
      std::size_t count = 0;
      const auto gather = [&](std::uint32_t bucket_index) {
        const Bucket bucket = buckets_[bucket_index];
        const std::uint32_t* run = pool_.data() + bucket.begin;
        if (bucket.size <= kMinBucketCapacity) {
          std::copy_n(run, kMinBucketCapacity, candidates.data() + count);
          std::fill_n(candidate_buckets.data() + count, kMinBucketCapacity,
                      bucket_index);
        } else {
          if (count + bucket.size + kGatherRoom > candidates.size()) {
            candidates.resize(2 * (count + bucket.size + kGatherRoom));
            candidate_buckets.resize(candidates.size());
          }
          std::copy_n(run, bucket.size, candidates.data() + count);
          std::fill_n(candidate_buckets.data() + count, bucket.size,
                      bucket_index);
        }
        count += bucket.size;
      };
      const std::uint32_t local_x = cell.x & (kBlockEdge - 1);
      const bool row_in_block = local_x != 0 && local_x != kBlockEdge - 1;
      for (std::int32_t dz = -1; dz <= 1; ++dz) {
        const std::uint32_t z =
            (cell.z + static_cast<std::uint32_t>(dz)) & kCoordMask;
        for (std::int32_t dy = -1; dy <= 1; ++dy) {
          const std::uint32_t y =
              (cell.y + static_cast<std::uint32_t>(dy)) & kCoordMask;
          if (row_in_block) {
            const std::uint32_t base = find_block(block_key(cell.x, y, z));
            if (base == kNone) continue;
            const std::uint32_t first = base + cell_in_block(cell.x - 1, y, z);
            gather(first);
            gather(first + 1);
            gather(first + 2);
            continue;
          }
          for (std::int32_t dx = -1; dx <= 1; ++dx) {
            const std::uint32_t x =
                (cell.x + static_cast<std::uint32_t>(dx)) & kCoordMask;
            const std::uint32_t base = find_block(block_key(x, y, z));
            if (base != kNone) gather(base + cell_in_block(x, y, z));
          }
        }
      }

      // The first strictly closest candidate that passes both gates wins.
      ops += count;
      std::size_t best = count;
      float best_distance2 = gate2;
      for (std::size_t k = 0; k < count; ++k) {
        const Surfel& s = surfels_[candidates[k]];
        const float d2 = (s.position - p_world).squared_norm();
        const bool better =
            (d2 < best_distance2) & (s.normal.dot(n_world) > normal_gate);
        best_distance2 = better ? d2 : best_distance2;
        best = better ? k : best;
      }

      ++ops;  // The update/insert itself.
      if (best < count) {
        const std::uint32_t index = candidates[best];
        Surfel& s = surfels_[index];
        const float w = s.confidence;
        const float inv = 1.0f / (w + 1.0f);
        s.position = (s.position * w + p_world) * inv;
        s.normal = ((s.normal * w + n_world) * inv).normalized();
        s.intensity = (s.intensity * w + pixel_intensity) * inv;
        s.radius = std::min(s.radius, radius);
        s.confidence = std::min(w + 1.0f, params.max_confidence);
        s.last_seen = frame_index;
        const std::uint32_t bucket = bucket_of(cell_of(s.position));
        if (bucket != candidate_buckets[best]) {
          erase(candidate_buckets[best], index);
          append(bucket, index);
        }
      } else {
        Surfel s;
        s.position = p_world;
        s.normal = n_world;
        s.intensity = pixel_intensity;
        s.radius = radius;
        s.confidence = 1.0f;
        s.last_seen = frame_index;
        surfels_.push_back(s);
        append(bucket_of(cell), static_cast<std::uint32_t>(surfels_.size() - 1));
      }
    }
  }
  stats.add(Kernel::kSurfelFusion, ops);
}

ModelView SurfelMap::project(const Intrinsics& intrinsics, const SE3& pose,
                             double confidence_threshold,
                             std::uint32_t current_frame,
                             std::uint32_t unstable_window,
                             KernelStats& stats) const {
  ModelView view;
  view.vertices =
      hm::geometry::VertexMap(intrinsics.width, intrinsics.height, Vec3f{});
  view.normals =
      hm::geometry::NormalMap(intrinsics.width, intrinsics.height, Vec3f{});
  view.intensity =
      hm::geometry::IntensityImage(intrinsics.width, intrinsics.height, -1.0f);
  hm::geometry::DepthImage zbuffer(intrinsics.width, intrinsics.height, 1e30f);

  const SE3 world_to_camera = pose.inverse();
  std::uint64_t ops = 0;
  for (const Surfel& s : surfels_) {
    ++ops;
    const bool stable = static_cast<double>(s.confidence) >= confidence_threshold;
    const bool recent =
        unstable_window > 0 && current_frame >= s.last_seen &&
        current_frame - s.last_seen <= unstable_window;
    if (!stable && !recent) continue;
    const Vec3d p_camera =
        world_to_camera * hm::geometry::to_double(s.position);
    const auto pixel = intrinsics.project(p_camera);
    if (!pixel) continue;
    const int u = static_cast<int>(std::lround(pixel->x));
    const int v = static_cast<int>(std::lround(pixel->y));
    if (!intrinsics.contains(u, v)) continue;
    const auto z = static_cast<float>(p_camera.z);
    if (z >= zbuffer.at(u, v)) continue;
    zbuffer.at(u, v) = z;
    view.vertices.set(u, v, s.position);
    view.normals.set(u, v, s.normal);
    view.intensity.at(u, v) = s.intensity;
  }
  stats.add(Kernel::kSurfelFusion, ops);
  return view;
}

std::size_t SurfelMap::prune(std::uint32_t current_frame, std::uint32_t max_age,
                             double confidence_threshold, KernelStats& stats) {
  const std::size_t before = surfels_.size();
  std::vector<Surfel> kept;
  kept.reserve(before);
  for (const Surfel& s : surfels_) {
    const bool stable =
        static_cast<double>(s.confidence) >= confidence_threshold;
    const bool fresh = current_frame < s.last_seen ||
                       current_frame - s.last_seen <= max_age;
    if (stable || fresh) kept.push_back(s);
  }
  stats.add(Kernel::kSurfelFusion, before);
  if (kept.size() == before) return 0;
  surfels_ = std::move(kept);
  rebuild_index();
  return before - surfels_.size();
}

}  // namespace hm::elasticfusion
