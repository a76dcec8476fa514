// A *scenario* is the serialized form of one tuning campaign: design space,
// optimizer budget, seed, objective names, and which evaluator to run —
// everything needed to open (or re-open, after a crash) a campaign from
// bytes alone, whether hm_serve hosts it or hm_tune runs it in-process. A
// sidecar copy of the submitted text is persisted next to the campaign's
// journal so recovery can rebuild the campaign without the client. The
// JSON reader is the repo's shared one (common/json.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hypermapper/evaluator.hpp"
#include "hypermapper/optimizer.hpp"
#include "hypermapper/space.hpp"

namespace hm::serve {

/// One campaign description, decoded and validated.
struct Scenario {
  std::string name;  ///< Campaign id; unique among active campaigns.
  std::string raw;   ///< The submitted JSON text, byte-for-byte (sidecar).
  hm::hypermapper::DesignSpace space;
  hm::hypermapper::OptimizerConfig config;
  std::vector<std::string> objective_names;
  /// Built-in evaluator selector ("grid", "synthetic", "kfusion" or
  /// "elasticfusion") plus its knobs.
  std::string evaluator_kind = "grid";
  /// SLAM kinds only: the device cost model ("odroid", "asus" or "nvidia")
  /// and the length of the rendered benchmark sequence.
  std::string device;
  std::size_t frames = 0;
  /// Failure injection: keys with key % fail_modulo == fail_remainder throw
  /// a permanent EvaluationError. fail_modulo == 0 disables.
  std::uint64_t fail_modulo = 0;
  std::uint64_t fail_remainder = 0;
  /// Hang injection (chaos tests): evaluations of keys with
  /// key % hang_modulo == hang_remainder sleep hang_seconds.
  std::uint64_t hang_modulo = 0;
  std::uint64_t hang_remainder = 0;
  double hang_seconds = 0.0;
  /// Run evaluations inside the process sandbox (forked workers with
  /// SIGKILL deadline escalation) instead of in-process.
  bool sandbox = false;
  /// Per-evaluation wall-clock deadline; 0 disables. Cooperative without
  /// the sandbox, a hard SIGKILL with it.
  double eval_deadline_seconds = 0.0;
  /// Whole-campaign wall-clock deadline enforced by the server; on overrun
  /// the campaign is parked (journal intact, resumable). 0 disables.
  double campaign_deadline_seconds = 0.0;
};

/// Decodes and validates a scenario JSON document. The accepted schema:
///
///   {
///     "name": "demo",                       // required, [A-Za-z0-9._-]+
///     "seed": 77,
///     "objectives": ["f0", "f1"],           // 1 or 2 names
///     "space": [                            // required, >= 1 parameter
///       {"kind": "integer", "name": "x", "lo": 0, "hi": 39}, // |lo|,|hi| <= 2^53
///       {"kind": "ordinal", "name": "r", "values": [1, 2, 4], // increasing
///        "log": true},
///       {"kind": "boolean", "name": "b"},
///       {"kind": "categorical", "name": "c", "labels": ["lo", "hi"]},
///       {"kind": "real", "name": "t", "lo": 0.0, "hi": 1.0}
///     ],
///     "budget": {"random_samples": 40, "max_iterations": 4,
///                "max_samples_per_iteration": 15, "pool_size": 200,
///                "tree_count": 8},           // all optional
///     "evaluator": {"kind": "grid",          // or "synthetic"
///                   "fail_modulo": 17, "fail_remainder": 3,
///                   "hang_modulo": 0, "hang_remainder": 0,
///                   "hang_seconds": 0.0},    // all optional
///     "sandbox": false,                      // optional
///     "deadlines": {"eval_seconds": 0.0,
///                   "campaign_seconds": 0.0} // optional
///   }
///
/// The SLAM kinds run the paper's pipelines over their built-in spaces
/// (DESIGN.md §6; "space" is rejected), with objectives defaulting to
/// runtime_s + max_ate_m (kfusion) or mean_ate_m (elasticfusion):
///
///     "evaluator": {"kind": "kfusion", "device": "odroid", "frames": 30}
///     // device odroid|asus|nvidia (default odroid; nvidia for
///     // elasticfusion), frames 2..1000 (default 30; 40 for elasticfusion)
[[nodiscard]] std::optional<Scenario> parse_scenario(std::string_view text,
                                                     std::string* error);

/// Instantiates the scenario's built-in evaluator. Deterministic: the same
/// scenario text always produces the same objective function, which is what
/// makes a recovered campaign's report byte-identical to an uninterrupted
/// one. The SLAM kinds render their benchmark sequence here. The evaluator
/// may reference `scenario.space` — the scenario must stay alive (and
/// unmoved) while it runs. Returns nullptr for an unknown kind or device.
[[nodiscard]] std::unique_ptr<hm::hypermapper::Evaluator>
make_scenario_evaluator(const Scenario& scenario);

}  // namespace hm::serve
