#!/usr/bin/env bash
# ThreadSanitizer job: builds the tree with -DHM_SANITIZE=thread and runs the
# scheduler-sensitive tests (label "tsan": thread pool, harness, optimizer,
# the metrics registry under concurrent writers) plus the SIMD suites (label
# "simd": equivalence, golden values and exactness, whose pooled cases drive
# the parallel kernel paths), the sandbox suite (label "sandbox", whose
# concurrent-batch case leases pooled workers from ThreadPool threads), and
# the serve suite (label "serve": the daemon's pool-fan-out/completion-queue
# handoff, overload shedding, and park-on-disconnect under a live event
# loop; the forked-daemon recovery and sandbox-daemon cases self-skip —
# fork+threads is unsupported under TSan), and the observability suite (label "obs": the
# lock-free flight-recorder ring under concurrent writers, the scrape
# listener's connection handling, trace-span buffers; its traced-sandbox
# case self-skips like the recovery suite). Intended as the CI race-check
# gate; run locally before touching src/common/thread_pool.*, the sandbox
# supervisor, src/serve/, or any parallel kernel.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build-tsan}"

# Build every suite of the labels run below (tests/CMakeLists.txt keeps one
# tests_<label> target per label); ctest's label filter silently drops a
# suite that was never built.
HM_BUILD_TARGETS="tests_tsan tests_simd tests_sandbox tests_serve tests_obs" \
  hm_configure_build "$BUILD_DIR" -DHM_SANITIZE=thread
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  hm_ctest "$BUILD_DIR" -L 'tsan|simd|sandbox|serve|obs'
