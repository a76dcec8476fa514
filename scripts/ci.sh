#!/usr/bin/env bash
# One-shot CI gate: everything a merge must survive, in one script.
#   1. tier-1: configure + build everything, run the full ctest suite (this
#              includes the "lint" label: the hm_lint_self tree scan and the
#              linter's own tests)
#   2. tsan:   scripts/tsan.sh — the "tsan"-labeled concurrency suite (plus
#              simd/sandbox/serve/obs labels) under ThreadSanitizer
# Each stage reuses its standard build tree (build/, build-tsan/), so local
# runs are incremental. HM_CI_SKIP_TSAN=1 skips stage 2 (e.g. on hosts
# where TSan is unavailable).
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build}"

echo "== ci: tier-1 build + test =="
hm_configure_build "$BUILD_DIR"
hm_ctest "$BUILD_DIR"

if [[ "${HM_CI_SKIP_TSAN:-0}" == "0" ]]; then
  echo "== ci: tsan label =="
  BUILD_DIR=build-tsan scripts/tsan.sh
else
  echo "== ci: tsan label skipped (HM_CI_SKIP_TSAN) =="
fi

echo "== ci: all gates passed =="
