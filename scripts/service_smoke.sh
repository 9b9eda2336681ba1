#!/usr/bin/env bash
# Service smoke test: boot pubsd, submit a tiny campaign over HTTP, poll it
# to completion, then re-submit the identical spec and assert the daemon
# answered from the content-addressed cache without running any new
# simulations. Finishes with a graceful SIGTERM drain.
#
# Usage: scripts/service_smoke.sh [path-to-pubsd-binary]
set -euo pipefail

PUBSD=${1:-}
if [[ -z "$PUBSD" ]]; then
  go build -o /tmp/pubsd ./cmd/pubsd
  PUBSD=/tmp/pubsd
fi

SPEC='{"machines":[{"machine":"base"},{"machine":"pubs"}],"workloads":["matmul","chess"],"warmup":2000,"measure":8000}'
LOG=$(mktemp)

# 256 MiB trace budget: far above what the tiny sampled sweep below needs,
# so the resident-bytes assertion proves the gauge stays within budget
# rather than that eviction kicked in.
TRACE_BUDGET=268435456

# -addr 127.0.0.1:0 lets the kernel pick a free port; the bound address is
# parsed back out of the daemon's "serving on" line, so parallel smoke runs
# never collide.
#
# 8 workers: more than the cells in the burst spec below, so a burst of
# duplicate jobs has identical cells in flight simultaneously — the
# precondition for the singleflight-merge assertion.
"$PUBSD" serve -addr 127.0.0.1:0 -workers 8 -warmup 2000 -insts 8000 -trace-budget $TRACE_BUDGET 2>>"$LOG" &
PID=$!
trap 'kill -9 $PID 2>/dev/null || true; rm -f "$LOG" "$LOG".burst*' EXIT

for i in $(seq 1 50); do
  ADDR=$(sed -n 's/^pubsd: serving on \([0-9.]*:[0-9]*\) .*/\1/p' "$LOG" | tail -1)
  if [[ -n "$ADDR" ]]; then
    BASE=http://$ADDR
    curl -sf "$BASE/healthz" >/dev/null && break
  fi
  kill -0 $PID 2>/dev/null || { echo "daemon died at boot"; cat "$LOG"; exit 1; }
  [[ $i == 50 ]] && { echo "daemon never became healthy"; cat "$LOG"; exit 1; }
  sleep 0.2
done

submit_and_wait() {
  wait_job "$(curl -sf -X POST "$BASE/v1/jobs" -d "${1:-$SPEC}" | jq -r .id)"
}

# wait_job ID — polls the job to completion and prints its ID.
wait_job() {
  local id=$1 state
  [[ -n "$id" && "$id" != null ]] || { echo "submission failed"; exit 1; }
  for i in $(seq 1 100); do
    state=$(curl -sf "$BASE/v1/jobs/$id" | jq -r .state)
    case "$state" in
      done) echo "$id"; return 0 ;;
      failed) echo "job $id failed:" >&2
              curl -sf "$BASE/v1/jobs/$id" | jq .errors >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $id never finished (state=$state)" >&2; exit 1
}

# Metric samples carry a {node="..."} label set; match the bare name or any
# labeled series of it (skipping quantile series) and sum.
metric() {
  curl -sf "$BASE/metrics" | awk -v m="$1" \
    '($1 == m || index($1, m"{") == 1) && $1 !~ /quantile=/ {s += $2} END {print s+0}'
}

JOB1=$(submit_and_wait)
SIMS1=$(metric pubsd_sims_executed_total)
[[ "$SIMS1" == 4 ]] || { echo "expected 4 sims after first job, got $SIMS1"; exit 1; }

# The identical spec again: must complete from cache, zero new simulations.
JOB2=$(submit_and_wait)
SIMS2=$(metric pubsd_sims_executed_total)
HITS=$(metric pubsd_cache_hits_total)
[[ "$SIMS2" == "$SIMS1" ]] || { echo "re-submission re-simulated: $SIMS1 -> $SIMS2"; exit 1; }
[[ "$HITS" -ge 4 ]] || { echo "expected >=4 cache hits, got $HITS"; exit 1; }

# Both jobs returned identical result sets.
R1=$(curl -sf "$BASE/v1/jobs/$JOB1" | jq -S .results)
R2=$(curl -sf "$BASE/v1/jobs/$JOB2" | jq -S .results)
[[ "$R1" == "$R2" ]] || { echo "duplicate jobs returned different results"; exit 1; }

# Each result is addressable by its content key.
KEY=$(echo "$R1" | jq -r '.[0].key')
curl -sf "$BASE/v1/results/$KEY" | jq -e --arg k "$KEY" '.key == $k' >/dev/null

# A daemon cell is bit-identical to the equivalent CLI run.
CLI=$(go run ./cmd/pubsim -machine "$(echo "$R1" | jq -r '.[0].machine')" \
  -workload "$(echo "$R1" | jq -r '.[0].workload')" \
  -warmup 2000 -insts 8000 -json | jq -S .)
DAEMON=$(curl -sf "$BASE/v1/results/$KEY" | jq -S .)
[[ "$CLI" == "$DAEMON" ]] || { echo "CLI and daemon results differ for $KEY"; exit 1; }

# Window-major sampled sweep: three machines replaying one workload's
# predecoded windows. The trace cache must plan exactly once, report a
# positive resident footprint within the configured budget, and feed the
# per-window replay latency histogram.
SWEEP='{"machines":[{"machine":"base"},{"machine":"pubs"},{"machine":"age"}],"workloads":["parser"],"warmup":1000,"measure":2000,"windows":2,"fast_forward":20000,"window_major":true}'
submit_and_wait "$SWEEP" >/dev/null
SIMS3=$(metric pubsd_sims_executed_total)
[[ "$SIMS3" == $((SIMS1 + 3)) ]] || { echo "expected $((SIMS1 + 3)) sims after sampled sweep, got $SIMS3"; exit 1; }
PLANS=$(metric pubsd_predecode_misses_total)
[[ "$PLANS" == 1 ]] || { echo "expected 1 predecode plan, got $PLANS"; exit 1; }
RESIDENT=$(metric pubsd_trace_resident_bytes)
BUDGET=$(metric pubsd_trace_budget_bytes)
[[ "$BUDGET" == "$TRACE_BUDGET" ]] || { echo "trace budget gauge $BUDGET != configured $TRACE_BUDGET"; exit 1; }
[[ "$RESIDENT" -gt 0 && "$RESIDENT" -le "$TRACE_BUDGET" ]] || { echo "resident trace bytes $RESIDENT outside (0, $TRACE_BUDGET]"; exit 1; }
REPLAYS=$(metric pubsd_window_replay_latency_count)
[[ "$REPLAYS" -ge 6 ]] || { echo "expected >=6 window replays (3 machines x 2 windows), got $REPLAYS"; exit 1; }

# A burst of identical specs submitted concurrently must exercise the
# singleflight path, not just the cache. BURST's windows differ from
# $SPEC's, so nothing is answered from the results cached above, and its
# cells are big enough (~10ms) that the burst's duplicates reliably arrive
# while the original is still in flight.
BURST='{"machines":[{"machine":"base"},{"machine":"pubs"}],"workloads":["matmul","chess"],"warmup":20000,"measure":80000}'
MERGED0=$(metric pubsd_singleflight_merged_total)
POSTS=()
for i in 1 2 3 4; do
  curl -sf -X POST "$BASE/v1/jobs" -d "$BURST" -o "$LOG.burst$i" &
  POSTS+=($!)
done
wait "${POSTS[@]}"
for i in 1 2 3 4; do
  wait_job "$(jq -r .id "$LOG.burst$i")" >/dev/null
done
MERGED=$(( $(metric pubsd_singleflight_merged_total) - MERGED0 ))
[[ "$MERGED" -gt 0 ]] || { echo "a burst of 4 identical submissions never merged a duplicate (singleflight_merged +$MERGED)"; exit 1; }

# Graceful drain: SIGTERM flips healthz to 503, then the process exits 0.
kill -TERM $PID
for i in $(seq 1 50); do
  kill -0 $PID 2>/dev/null || break
  sleep 0.2
done
if kill -0 $PID 2>/dev/null; then echo "daemon did not drain"; exit 1; fi
wait $PID || { echo "daemon exited non-zero"; exit 1; }
trap - EXIT

echo "service smoke OK: $SIMS1 sims, $HITS cache hits, $MERGED singleflight merges, CLI==daemon"
