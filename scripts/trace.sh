#!/usr/bin/env bash
# Observability job: builds the "obs"-labelled tests (target tests_obs) and
# the trace-overhead benchmark, runs the "obs" ctest label (metrics
# registry, histogram bin boundaries, Chrome-trace round-trip, flight
# recorder, scrape endpoints, JSON writer), then runs
# bench/trace_overhead on the KFusion frame loop and leaves its
# BENCH_trace_overhead.json report in the build directory. The bench prints
# the <2% enabled-vs-disabled acceptance line; it reports, it does not gate.
#
# A second build tree with -DHM_TRACE=OFF can be checked with
#   BUILD_DIR=build-notrace HM_TRACE=OFF scripts/trace.sh
# which proves the compile-out path still builds and the bench records
# zero events.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build}"

EXTRA_ARGS=()
if [[ "${HM_TRACE:-ON}" == "OFF" ]]; then
  EXTRA_ARGS+=(-DHM_TRACE=OFF)
fi

HM_BUILD_TARGETS="tests_obs trace_overhead" \
  hm_configure_build "$BUILD_DIR" "${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"}"
hm_ctest "$BUILD_DIR" -L obs

(cd "$BUILD_DIR" && ./bench/trace_overhead "$@")
