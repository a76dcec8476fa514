#!/usr/bin/env bash
# Chaos job: builds the tree under AddressSanitizer and runs the sandbox
# fault-injection matrix (label "sandbox") plus the crash/resume suite
# (label "crash"). The sandbox tests fork real worker processes and inject
# every failure mode the supervisor must contain — segfault, abort, hang
# past the hard deadline, unbounded allocation, protocol garbage on the
# response pipe, transient-then-ok flakes, and spawn failures that trip
# the circuit breaker — asserting each maps to the documented typed
# outcome (DESIGN.md §10) and that sandboxed results stay bit-identical
# to in-process runs. ASan covers the supervisor's own frame buffers and
# the post-fork paths; the RLIMIT_AS case self-skips under sanitizers
# (shadow reservations make address-space caps meaningless there) and is
# covered by the plain build via `ctest -L sandbox`.
# Run locally before touching src/sandbox/ or the resilience layer.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build-chaos}"

HM_BUILD_TARGETS="tests_sandbox tests_crash" \
  hm_configure_build "$BUILD_DIR" -DHM_SANITIZE=address
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
  hm_ctest "$BUILD_DIR" -L 'sandbox|crash'
