#!/usr/bin/env bash
# Serving job: builds the hm_serve daemon + the hm_tune driver and runs the
# "serve" and "obs" ctest labels (socket framing matrix, scenario surface,
# daemon lifecycle, forked-daemon SIGKILL recovery, scrape-endpoint chaos),
# then drives the real binaries end to end:
#   1. smoke:    daemon up, hm_tune submits a campaign, report comes back;
#                a served KFusion report equals the same scenario's report
#                run in-process; SIGTERM drains the daemon and it exits 130
#   2. recovery: kill -9 the daemon mid-campaign, restart it over the same
#                journal directory, resume the campaign from another client,
#                and require the recovered report to be byte-identical to
#                the uninterrupted one; likewise for an in-process run
#                stopped by SIGINT (exit 130); --port 70000 exits 1
#   3. obs:      traced sandbox campaign produces one merged Chrome trace
#                spanning client, daemon, and forked workers; /metrics and
#                /status scrape live over loopback HTTP; a kill -9 is
#                preceded by a GET /events flight-recorder snapshot whose
#                eval events never claim more progress than the campaign
#                journal durably holds; the restarted daemon resumes the
#                crashed campaign and writes the flight dump on drain
# Run locally before touching src/serve/, the batch-async optimizer driver,
# the observability surfaces, the JSON writer, or the frame codec in
# src/common/frame.* and src/serve/protocol.*.
set -euo pipefail
source "$(dirname "$0")/common.sh"
cd "$(hm_repo_root)"

BUILD_DIR="${BUILD_DIR:-build}"

export HM_BUILD_TARGETS="hm_serve hm_tune tests_serve tests_obs"
hm_configure_build "$BUILD_DIR"
hm_ctest "$BUILD_DIR" -L 'serve|obs'

# Runs "$@" and fails the job unless it exits with status $1.
expect_exit() {
  local want=$1 got=0
  shift
  "$@" || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "serve: expected exit $want from '$*', got $got" >&2
    exit 1
  fi
}

HM_SERVE="$BUILD_DIR/src/serve/hm_serve"
HM_TUNE="$BUILD_DIR/examples/hm_tune"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Hang-slowed so the kill -9 below reliably lands mid-campaign; the hangs
# change timing only, never an objective value, so the reference report from
# the uninterrupted run is the byte-identity target for the recovered one.
SCENARIO='{"name": "smoke", "seed": 7,
  "space": [{"kind": "integer", "name": "x", "lo": 0, "hi": 19},
            {"kind": "integer", "name": "y", "lo": 0, "hi": 19}],
  "budget": {"random_samples": 12, "max_iterations": 2,
             "max_samples_per_iteration": 6, "pool_size": 60,
             "tree_count": 4},
  "evaluator": {"kind": "grid", "fail_modulo": 17, "fail_remainder": 3,
                "hang_modulo": 2, "hang_remainder": 0,
                "hang_seconds": 0.2}}'
KF_SCENARIO='{"name": "kf-small", "seed": 3,
  "evaluator": {"kind": "kfusion", "device": "odroid", "frames": 8},
  "budget": {"random_samples": 12, "max_iterations": 2,
             "max_samples_per_iteration": 6, "pool_size": 500,
             "tree_count": 8}}'

echo "== serve: daemon + client smoke, served KFusion == local, SIGTERM drain =="
"$HM_SERVE" --dir "$WORK/reference" --socket "$WORK/ref.sock" &
REF_PID=$!
"$HM_TUNE" --socket "$WORK/ref.sock" --scenario "$SCENARIO" \
    --report "$WORK/reference.txt"
test -s "$WORK/reference.txt"
"$HM_TUNE" --socket "$WORK/ref.sock" --scenario "$KF_SCENARIO" \
    --report "$WORK/kf-served.txt"
"$HM_TUNE" --dir "$WORK/kf-local" --scenario "$KF_SCENARIO" \
    --report "$WORK/kf-local.txt"
cmp "$WORK/kf-served.txt" "$WORK/kf-local.txt"
kill -TERM "$REF_PID"
expect_exit 130 wait "$REF_PID"  # SIGTERM drain.

echo "== serve: kill -9 mid-campaign, restart, byte-identical recovery =="
"$HM_SERVE" --dir "$WORK/crash" --socket "$WORK/crash.sock" &
CRASH_PID=$!
"$HM_TUNE" --socket "$WORK/crash.sock" --scenario "$SCENARIO" \
    --report "$WORK/never-written.txt" &
CLIENT_PID=$!
# Wait for the campaign's write-ahead log to hold durable records, let a
# few more land, then kill the daemon the hard way.
for _ in $(seq 1 100); do
  [[ -s "$WORK/crash/smoke.wal" ]] && break
  sleep 0.1
done
test -s "$WORK/crash/smoke.wal"
sleep 0.3
kill -9 "$CRASH_PID"
set +e
wait "$CRASH_PID"
wait "$CLIENT_PID"   # Loses its connection mid-campaign; failure expected.
set -e
test ! -s "$WORK/never-written.txt"

"$HM_SERVE" --dir "$WORK/crash" --socket "$WORK/crash.sock" &
RECOVER_PID=$!
"$HM_TUNE" --socket "$WORK/crash.sock" --resume smoke \
    --report "$WORK/recovered.txt"
cmp "$WORK/reference.txt" "$WORK/recovered.txt"
kill -TERM "$RECOVER_PID"
expect_exit 130 wait "$RECOVER_PID"  # SIGTERM drain.

echo "== serve: in-process run stopped by SIGINT, byte-identical resume =="
# The smoke scenario stretched to four active-learning batches, so a SIGINT
# sent once the first evaluations are journaled lands mid-run.
LONG_SCENARIO="${SCENARIO/\"max_iterations\": 2/\"max_iterations\": 4}"
"$HM_TUNE" --dir "$WORK/whole" --scenario "$LONG_SCENARIO" \
    --report "$WORK/whole.txt"
"$HM_TUNE" --dir "$WORK/sigint" --scenario "$LONG_SCENARIO" \
    --report "$WORK/sigint.txt" &
TUNE_PID=$!
for _ in $(seq 1 200); do
  grep -qa ' eval ' "$WORK/sigint/smoke.wal" 2>/dev/null && break
  sleep 0.05
done
kill -INT "$TUNE_PID"
expect_exit 130 wait "$TUNE_PID"
test ! -e "$WORK/sigint.txt"
"$HM_TUNE" --dir "$WORK/sigint" --resume smoke --report "$WORK/sigint.txt"
cmp "$WORK/whole.txt" "$WORK/sigint.txt"
expect_exit 1 "$HM_TUNE" --port 70000 --ping  # Out of range, not 4464.

echo "== serve: observability — merged trace, live scrapes, flight recorder =="

# GET over bash's /dev/tcp (no curl in the image). The endpoint speaks
# HTTP/1.0 with Connection: close, so reading to EOF is the whole exchange.
http_get() { # port target outfile
  exec 3<>"/dev/tcp/127.0.0.1/$1"
  printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
  cat <&3 > "$3"
  exec 3<&- 3>&-
}
http_body() { # strip the status line + headers
  sed '1,/^\r\{0,1\}$/d' "$1"
}

# Sandboxed so the merged trace must cross a fork: client pid, daemon pid,
# and at least one sandbox-worker pid all contribute spans under one id.
OBS_SCENARIO='{"name": "obstrace", "seed": 11, "sandbox": true,
  "space": [{"kind": "integer", "name": "x", "lo": 0, "hi": 19},
            {"kind": "integer", "name": "y", "lo": 0, "hi": 19}],
  "budget": {"random_samples": 10, "max_iterations": 2,
             "max_samples_per_iteration": 5, "pool_size": 60,
             "tree_count": 4},
  "evaluator": {"kind": "grid"}}'
# Hang-slowed twin of the smoke scenario so the kill -9 below lands with
# evaluations in flight and durable WAL records already on disk.
CRASH_SCENARIO='{"name": "obscrash", "seed": 7, "sandbox": true,
  "space": [{"kind": "integer", "name": "x", "lo": 0, "hi": 19},
            {"kind": "integer", "name": "y", "lo": 0, "hi": 19}],
  "budget": {"random_samples": 12, "max_iterations": 2,
             "max_samples_per_iteration": 6, "pool_size": 60,
             "tree_count": 4},
  "evaluator": {"kind": "grid", "fail_modulo": 17, "fail_remainder": 3,
                "hang_modulo": 2, "hang_remainder": 0,
                "hang_seconds": 0.2}}'

"$HM_SERVE" --dir "$WORK/obs" --socket "$WORK/obs.sock" \
    --http-port 0 --http-port-file "$WORK/http.port" \
    --flight-dump "$WORK/flight.json" &
OBS_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$WORK/http.port" ]] && break
  sleep 0.1
done
HTTP_PORT="$(tr -d '[:space:]' < "$WORK/http.port")"

# (a) One traced campaign, one merged cross-process timeline.
"$HM_TUNE" --socket "$WORK/obs.sock" --scenario "$OBS_SCENARIO" \
    --trace "$WORK/trace.json" --metrics "$WORK/client-metrics.txt" \
    --report "$WORK/obstrace.txt"
test -s "$WORK/obstrace.txt"
grep -q '^hm_client_progress_frames{campaign="obstrace"}' \
    "$WORK/client-metrics.txt"
python3 - "$WORK/trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
ids = {e["args"]["trace_id"] for e in events if "args" in e and "trace_id" in e["args"]}
assert len(ids) == 1, f"expected one trace id, got {ids}"
pids = {e["pid"] for e in events}
assert len(pids) >= 2, f"expected spans from >=2 processes, got pids {pids}"
names = {e["name"] for e in events}
for required in ("client_campaign", "campaign_eval", "worker_eval"):
    assert required in names, f"missing span {required!r} in {sorted(names)}"
print(f"serve.sh: merged trace OK — {len(events)} spans, "
      f"{len(pids)} processes, trace id {ids.pop()}")
PY

# (b) Live /metrics and /status scrapes with per-campaign labels.
http_get "$HTTP_PORT" /metrics "$WORK/metrics.raw"
http_body "$WORK/metrics.raw" > "$WORK/metrics.txt"
grep -q '^hm_campaign_state{campaign="obstrace",state="done"} 1$' \
    "$WORK/metrics.txt"
grep -q '^hm_campaign_evals_delivered{campaign="obstrace"}' "$WORK/metrics.txt"
grep -q '^hm_serve_uptime_seconds' "$WORK/metrics.txt"
http_get "$HTTP_PORT" /status "$WORK/status.raw"
http_body "$WORK/status.raw" > "$WORK/status.json"
python3 - "$WORK/status.json" <<'PY'
import json, sys
status = json.load(open(sys.argv[1]))
campaigns = {c["id"]: c for c in status["campaigns"]}
assert campaigns["obstrace"]["state"] == "done", campaigns
assert campaigns["obstrace"]["evals_delivered"] >= 10, campaigns
print("serve.sh: /status OK —", len(campaigns), "campaign(s)")
PY

# (c) Flight recorder vs the journal's committed prefix. SIGKILL runs no
# handlers, so the dump is the GET /events snapshot taken just before the
# kill: every eval event's sample count was read *after* the journal
# committed that batch, so it can never exceed the eval records a crash
# leaves on disk.
"$HM_TUNE" --socket "$WORK/obs.sock" --scenario "$CRASH_SCENARIO" \
    --report "$WORK/obscrash-never.txt" &
OBS_CLIENT_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$WORK/obs/obscrash.wal" ]] && break
  sleep 0.1
done
test -s "$WORK/obs/obscrash.wal"
# Poll /events until the ring holds delivered evaluations for the crashing
# campaign, so the snapshot below is taken genuinely mid-flight.
for _ in $(seq 1 100); do
  http_get "$HTTP_PORT" /events "$WORK/events.raw"
  http_body "$WORK/events.raw" > "$WORK/events.json"
  grep -q '"kind": "eval", "a": [0-9]*, "b": [0-9]*, "detail": "obscrash"' \
      "$WORK/events.json" && break
  sleep 0.1
done
kill -9 "$OBS_PID"
set +e
wait "$OBS_PID"
wait "$OBS_CLIENT_PID"   # Loses its connection mid-campaign.
set -e
python3 - "$WORK/events.json" "$WORK/obs/obscrash.wal" <<'PY'
import json, sys, zlib
events = json.load(open(sys.argv[1]))["events"]
kinds = {e["kind"] for e in events}
for required in ("admit", "eval", "done", "http_scrape"):
    assert required in kinds, f"missing {required!r} events in {sorted(kinds)}"
evals = [e for e in events if e["kind"] == "eval" and e["detail"] == "obscrash"]
assert evals, "no eval events recorded for the crashed campaign"
seqs = [e["seq"] for e in evals]
assert seqs == sorted(seqs), "flight eval events out of order"
flight_samples = max(e["b"] for e in evals)
committed = 0
with open(sys.argv[2], "rb") as wal:
    lines = wal.read().split(b"\n")
assert lines[0].startswith(b"hmwal 1"), "bad WAL header"
for line in lines[1:]:
    if not line:
        continue
    crc, _, body = line.partition(b" ")
    if len(crc) != 8 or zlib.crc32(body) != int(crc, 16):
        continue  # torn tail from the SIGKILL — not committed
    if body.split(b" ", 1)[0] == b"eval":
        committed += 1
assert flight_samples <= committed, (
    f"flight recorder claims {flight_samples} committed samples but the "
    f"journal holds only {committed} eval records")
print(f"serve.sh: flight recorder OK — {len(evals)} eval events, "
      f"max sample count {flight_samples} <= {committed} journaled evals")
PY

# Restart over the same journal dir: resume the crashed campaign with the
# observability surfaces still on, then SIGTERM so the drain path writes
# the flight dump.
"$HM_SERVE" --dir "$WORK/obs" --socket "$WORK/obs.sock" \
    --http-port 0 --http-port-file "$WORK/http.port2" \
    --flight-dump "$WORK/flight.json" &
OBS2_PID=$!
"$HM_TUNE" --socket "$WORK/obs.sock" --resume obscrash \
    --report "$WORK/obscrash.txt"
test -s "$WORK/obscrash.txt"
kill -TERM "$OBS2_PID"
expect_exit 130 wait "$OBS2_PID"  # SIGTERM drain.
test -s "$WORK/flight.json"
python3 - "$WORK/flight.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["events"]
kinds = {e["kind"] for e in events}
assert "drain" in kinds, f"no drain event in the flight dump: {sorted(kinds)}"
assert any(e["kind"] == "done" and e["detail"] == "obscrash" for e in events), \
    "resumed campaign never reached done in the flight dump"
print(f"serve.sh: drain flight dump OK — {len(events)} events")
PY

echo "== serve: recovered report is byte-identical; obs gates passed =="
