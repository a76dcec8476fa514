// CLI plumbing for process-isolated evaluation in crowd_transfer's tuning
// stage (hm_tune scenarios use "sandbox": true instead): parses --sandbox / --eval-timeout SECONDS / --eval-mem-limit MB
// (plus --sandbox-workers N) and wraps the driver's evaluator in
// hm::sandbox::SandboxedEvaluator so aggressive design-space corners that
// segfault, hang, or exhaust memory are killed and quarantined instead of
// taking the whole run down. Header-only, like observability.hpp —
// examples are single-file walkthroughs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "hypermapper/evaluator.hpp"
#include "sandbox/sandbox.hpp"

namespace hm::examples {

/// The sandbox flag set of one example invocation. `wrap` returns the
/// evaluator the optimizer should see; the wrapper (when any) lives inside
/// this object, so keep it alive for the whole run.
class SandboxCli {
 public:
  static SandboxCli from_args(const hm::common::CliArgs& args) {
    SandboxCli cli;
    cli.enabled_ = args.flag("sandbox");
    cli.policy_.deadline_seconds = args.get_or("eval-timeout", 0.0);
    cli.policy_.memory_limit_mb = static_cast<std::size_t>(
        args.get_or("eval-mem-limit", std::int64_t{0}));
    cli.policy_.workers = static_cast<std::size_t>(
        args.get_or("sandbox-workers", std::int64_t{2}));
    // The caps are only enforceable inside worker processes, so asking
    // for either implies --sandbox.
    if (cli.policy_.deadline_seconds > 0.0 || cli.policy_.memory_limit_mb > 0) {
      cli.enabled_ = true;
    }
    return cli;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Wraps `inner` in a worker pool when sandboxing was requested;
  /// otherwise returns `inner` unchanged.
  [[nodiscard]] hm::hypermapper::Evaluator& wrap(
      hm::hypermapper::Evaluator& inner) {
    if (!enabled_) return inner;
    sandboxed_ =
        std::make_unique<hm::sandbox::SandboxedEvaluator>(inner, policy_);
    std::printf(
        "sandbox: %zu worker processes, deadline %s, memory limit %s\n",
        policy_.workers,
        policy_.deadline_seconds > 0.0
            ? (std::to_string(policy_.deadline_seconds) + " s").c_str()
            : "none",
        policy_.memory_limit_mb > 0
            ? (std::to_string(policy_.memory_limit_mb) + " MiB").c_str()
            : "none");
    return *sandboxed_;
  }

  /// End-of-run supervision report (only when sandboxing was active);
  /// also drains the worker pool.
  void report_and_shutdown() {
    if (!sandboxed_) return;
    const hm::sandbox::SandboxStats stats = sandboxed_->stats();
    std::printf(
        "sandbox: %zu evaluations across %zu spawns; %zu kills "
        "(%zu deadline), %zu worker deaths, %zu protocol errors, "
        "%zu recycles%s\n",
        stats.requests, stats.spawns, stats.kills, stats.timeouts,
        stats.worker_deaths, stats.protocol_errors, stats.recycles,
        stats.circuit_open ? "; CIRCUIT OPEN (degraded to in-process)" : "");
    sandboxed_->shutdown();
  }

 private:
  bool enabled_ = false;
  hm::sandbox::SandboxPolicy policy_;
  std::unique_ptr<hm::sandbox::SandboxedEvaluator> sandboxed_;
};

}  // namespace hm::examples
