#!/usr/bin/env bash
# Memory/UB sanitizer job: builds the tree once per sanitizer
# (-DHM_SANITIZE=address, then undefined) and runs the failure-handling
# tests (label "fault") plus the SIMD suites (label "simd": equivalence,
# golden values, exactness) under each. Fault-injection paths deliberately
# walk error branches that the happy-path suite never touches; the SIMD
# suites prove the vector kernels' guard-band loads and masked-lane
# arithmetic are ASan/UBSan-clean; the sandbox suite walks the
# fork/kill/recovery supervision paths (its RLIMIT_AS case self-skips under
# ASan, which reserves shadow address space); the serve suite (label
# "serve") walks the daemon's socket error branches (corrupt frames,
# stalled writers, vanished clients), the SIGKILLed-daemon recovery path
# and the sandboxed-campaign daemon; the observability suite (label "obs")
# walks the scrape-endpoint chaos matrix (slow-loris readers, half-closes,
# oversized requests), the flight-recorder ring, the span-bundle codecs,
# and the JSON writer fed hostile bytes. Run locally before touching the
# resilient evaluator, quarantine logic, the SLAM failure gates, the
# sandbox supervisor, src/serve/, or any *_simd kernel path.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

# Build every suite of the labels run below (tests/CMakeLists.txt keeps one
# tests_<label> target per label); ctest's label filter silently drops a
# suite that was never built.
export HM_BUILD_TARGETS="tests_fault tests_simd tests_sandbox tests_serve
  tests_obs"

for SAN in address undefined; do
  BUILD_DIR="build-${SAN}"
  hm_configure_build "$BUILD_DIR" -DHM_SANITIZE="$SAN"
  ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    hm_ctest "$BUILD_DIR" -L 'fault|simd|sandbox|serve|obs'
done
