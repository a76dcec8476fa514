#!/usr/bin/env bash
# Static-analysis job: builds the project-native linter (tools/hm_lint) and
# runs the "lint" ctest label — the hm_lint_self scan of src/ bench/
# examples/ tests/ tools/ plus the linter's own tests. Exits nonzero on any
# unsuppressed diagnostic or unused suppression.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build}"

HM_BUILD_TARGETS="hm_lint tests_lint" hm_configure_build "$BUILD_DIR"
hm_ctest "$BUILD_DIR" -L lint
