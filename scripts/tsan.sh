#!/usr/bin/env bash
# ThreadSanitizer job: builds the tree with -DHM_SANITIZE=thread and runs the
# scheduler-sensitive tests (label "tsan": thread pool, harness, optimizer)
# plus the SIMD equivalence suite (label "simd", whose pooled cases drive the
# parallel kernel paths), the sandbox suite (label "sandbox", whose
# concurrent-batch case leases pooled workers from ThreadPool threads), and
# the serve suite (label "serve": the daemon's pool-fan-out/completion-queue
# handoff, overload shedding, and park-on-disconnect under a live event
# loop; the forked-daemon recovery cases self-skip — fork+threads is
# unsupported under TSan), and the observability suite (label "obs": the
# lock-free flight-recorder ring under concurrent writers, the scrape
# listener's connection handling, trace-span buffers; its traced-sandbox
# case self-skips like the recovery suite). Intended as the CI race-check
# gate; run locally before touching src/common/thread_pool.*, the sandbox
# supervisor, src/serve/, or any parallel kernel.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build-tsan}"

HM_BUILD_TARGETS="thread_pool_test harness_test optimizer_test
  simd_equivalence_test sandbox_protocol_test sandbox_test
  serve_protocol_test serve_test serve_recovery_test serve_obs_test
  obs_metrics_test obs_trace_test flight_recorder_test json_test" \
  hm_configure_build "$BUILD_DIR" -DHM_SANITIZE=thread
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  hm_ctest "$BUILD_DIR" -L 'tsan|simd|sandbox|serve|obs'
