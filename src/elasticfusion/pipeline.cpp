#include "elasticfusion/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "kfusion/preprocess.hpp"

namespace hm::elasticfusion {
namespace {

/// Per-phase duration histograms
/// (`hm_elasticfusion_phase_seconds{phase=...}`), resolved once.
struct PhaseMetrics {
  hm::common::Histogram* preprocess = nullptr;
  hm::common::Histogram* tracking = nullptr;
  hm::common::Histogram* fusion = nullptr;
  hm::common::Histogram* loop_closure = nullptr;
  hm::common::Histogram* maintenance = nullptr;
};

const PhaseMetrics& phase_metrics() {
  static const PhaseMetrics metrics = [] {
    auto& registry = hm::common::MetricsRegistry::global();
    const auto resolve = [&registry](std::string_view phase) {
      return &registry.histogram("hm_elasticfusion_phase_seconds", "phase",
                                 phase);
    };
    PhaseMetrics resolved;
    resolved.preprocess = resolve("preprocess");
    resolved.tracking = resolve("tracking");
    resolved.fusion = resolve("fusion");
    resolved.loop_closure = resolve("loop_closure");
    resolved.maintenance = resolve("maintenance");
    return resolved;
  }();
  return metrics;
}

}  // namespace

ElasticFusionPipeline::ElasticFusionPipeline(const EFParams& params,
                                             const Intrinsics& intrinsics,
                                             const SE3& initial_pose)
    : params_(params), intrinsics_(intrinsics), pose_(initial_pose) {
  odometry_config_.icp_rgb_weight = params.icp_rgb_weight;
  odometry_config_.so3_prealign = params.so3_prealign;
  odometry_config_.fast_odometry = params.fast_odometry;
  odometry_config_.frame_to_frame_rgb = params.frame_to_frame_rgb;
}

hm::geometry::DepthImage ElasticFusionPipeline::preprocess(
    const hm::geometry::DepthImage& raw) {
  // Depth cutoff, then a light bilateral filter (EF filters depth before
  // computing vertex/normal maps).
  hm::geometry::DepthImage cut = raw;
  const auto cutoff = static_cast<float>(params_.depth_cutoff);
  for (int v = 0; v < cut.height(); ++v) {
    float* row = cut.row(v);
    for (int u = 0; u < cut.width(); ++u) {
      if (row[u] > cutoff) row[u] = 0.0f;
    }
  }
  hm::kfusion::BilateralConfig filter;
  filter.radius = 1;  // EF's filter window is smaller than KFusion's.
  return hm::kfusion::bilateral_filter(cut, filter, stats_);
}

ElasticFusionPipeline::FrameResult ElasticFusionPipeline::process_frame(
    const hm::geometry::DepthImage& depth,
    const hm::geometry::IntensityImage& intensity) {
  FrameResult result;

  hm::geometry::DepthImage filtered;
  std::vector<PyramidLevel> pyramid;
  std::vector<IntensityImage> intensity_pyramid;
  {
    HM_TRACE_SPAN(span, "preprocess", "elasticfusion",
                  phase_metrics().preprocess);
    filtered = preprocess(depth);
    pyramid = hm::kfusion::build_pyramid(filtered, intrinsics_, 3, stats_);
    intensity_pyramid = build_intensity_pyramid(intensity, 3, stats_);
  }

  if (frame_ == 0) {
    // Bootstrap: fuse the first frame at the initial pose.
    map_.fuse(pyramid[0].vertices, pyramid[0].normals, intensity, pose_, frame_,
              {}, stats_);
    const auto code = ferns_.encode(filtered, intensity, stats_);
    ferns_.maybe_add(code, pose_, frame_, stats_);
  } else {
    // --- Tracking (with fern relocalization as the fallback). ---
    {
      HM_TRACE_SPAN(tracking_span, "tracking", "elasticfusion",
                    phase_metrics().tracking);
      SE3 initial = pose_;
      if (params_.so3_prealign && !previous_intensity_pyramid_.empty()) {
        const std::size_t coarse = pyramid.size() - 1;
        const hm::geometry::Mat3d delta = so3_prealign(
            pyramid[coarse], intensity_pyramid[coarse],
            previous_intensity_pyramid_[coarse], pyramid[coarse].intrinsics,
            stats_);
        // A current-camera point p maps to delta*p in the previous camera:
        // T_cur = T_prev * delta.
        initial.rotation =
            hm::geometry::orthonormalized(initial.rotation * delta);
      }

      const ModelView model =
          map_.project(intrinsics_, pose_, params_.confidence_threshold,
                       frame_, kUnstableWindow, stats_);
      const OdometryResult odom = track_rgbd(
          pyramid, intensity_pyramid, model, previous_intensity_pyramid_,
          intrinsics_, pose_, initial, odometry_config_, stats_);
      result.tracked = odom.tracked;

      if (odom.tracked) {
        pose_ = odom.pose;
      } else if (params_.relocalisation) {
        // --- Fern relocalization: jump to the best-matching keyframe pose
        // and re-track against the model from there. ---
        const auto code = ferns_.encode(filtered, intensity, stats_);
        const auto match = ferns_.best_match(code, stats_);
        if (match && match->similarity > 0.6) {
          const SE3 candidate = ferns_.keyframe(match->keyframe_index).pose;
          const ModelView reloc_model = map_.project(
              intrinsics_, candidate, params_.confidence_threshold, frame_,
              /*unstable_window=*/0, stats_);
          const OdometryResult retry = track_rgbd(
              pyramid, intensity_pyramid, reloc_model, {}, intrinsics_,
              candidate, candidate, odometry_config_, stats_);
          if (retry.tracked) {
            pose_ = retry.pose;
            result.tracked = true;
            result.relocalized = true;
            ++relocalizations_;
          }
        }
      }
    }

    // --- Local loop closure (model-to-keyframe consistency). ---
    if (!params_.open_loop && result.tracked &&
        frame_ % kLoopCheckInterval == 0) {
      HM_TRACE_SPAN(span, "loop_closure", "elasticfusion",
                    phase_metrics().loop_closure);
      attempt_loop_closure(pyramid, intensity_pyramid, result);
    }

    // --- Fusion: only frames with a trusted pose extend the map. ---
    if (result.tracked) {
      HM_TRACE_SPAN(span, "fusion", "elasticfusion", phase_metrics().fusion);
      map_.fuse(pyramid[0].vertices, pyramid[0].normals, intensity, pose_,
                frame_, {}, stats_);
      const auto code = ferns_.encode(filtered, intensity, stats_);
      ferns_.maybe_add(code, pose_, frame_, stats_);
    }

    // --- Map maintenance: drop stale unstable surfels (sensor noise that
    // was never confirmed). ---
    if (frame_ % kLoopCheckInterval == 0) {
      HM_TRACE_SPAN(span, "maintenance", "elasticfusion",
                    phase_metrics().maintenance);
      (void)map_.prune(frame_, 2 * kUnstableWindow,
                       params_.confidence_threshold, stats_);
    }
  }

  previous_intensity_pyramid_ = intensity_pyramid;
  trajectory_.push_back(pose_);
  result.pose = pose_;
  ++frame_;
  return result;
}

void ElasticFusionPipeline::attempt_loop_closure(
    const std::vector<PyramidLevel>& pyramid,
    const std::vector<IntensityImage>& intensity_pyramid, FrameResult& result) {
  // Local loop closure: re-register the current frame against the model
  // seen from the matched keyframe's viewpoint. A consistent solve yields a
  // small pose correction that is blended into the current pose; the map
  // itself is not deformed (EF's deformation graph has no counterpart
  // here, see DESIGN.md).
  hm::geometry::DepthImage snapshot = pyramid[0].depth;
  const auto code = ferns_.encode(
      snapshot, intensity_pyramid.empty() ? IntensityImage{} : intensity_pyramid[0],
      stats_);
  const auto match = ferns_.best_match(code, stats_);
  if (!match || match->similarity < 0.7) return;
  const Keyframe& keyframe = ferns_.keyframe(match->keyframe_index);
  if (frame_ - keyframe.frame_index < 2 * kLoopCheckInterval) {
    return;  // Too recent to constrain drift.
  }

  const ModelView view =
      map_.project(intrinsics_, keyframe.pose, params_.confidence_threshold,
                   frame_, /*unstable_window=*/0, stats_);
  OdometryConfig strict = odometry_config_;
  strict.min_inlier_fraction = 0.2;
  strict.rms_gate = 0.05;
  const OdometryResult registration =
      track_rgbd(pyramid, intensity_pyramid, view, {}, intrinsics_,
                 keyframe.pose, pose_, strict, stats_);
  if (!registration.tracked) return;

  // Correction from the drifted pose to the loop-consistent one; apply a
  // damped fraction (EF distributes it over the deformation graph).
  const SE3 correction = registration.pose * pose_.inverse();
  const auto twist = correction.log();
  double norm2 = 0.0;
  for (const double value : twist) norm2 += value * value;
  if (norm2 < 1e-10 || norm2 > 0.25) return;  // Negligible or implausible.

  std::array<double, 6> damped{};
  for (std::size_t i = 0; i < 6; ++i) damped[i] = 0.5 * twist[i];
  const SE3 blended = SE3::exp(damped);
  pose_ = blended * pose_;
  pose_.rotation = hm::geometry::orthonormalized(pose_.rotation);
  result.loop_closed = true;
  ++loop_closures_;
  stats_.add(Kernel::kLoopClosure, map_.size());
}

}  // namespace hm::elasticfusion
