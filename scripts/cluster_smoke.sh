#!/usr/bin/env bash
# Cluster smoke test: the distributed fabric's three contracts, end to end
# over real processes and real sockets.
#
#   1. Bit identity — a coordinator sharding a campaign across three worker
#      daemons returns results byte-identical to a single plain daemon.
#   2. Exactly-once — the 8-cell campaign costs exactly 8 simulations
#      cluster-wide, the coordinator itself simulates nothing, and a burst
#      of duplicate submissions adds zero.
#   3. Two-tier cache — a fresh coordinator over a re-sharded ring answers
#      from the old owner's store via peer fetch (pubsd_cluster_peer_cache_
#      hits_total > 0) instead of re-simulating.
#   4. Shared sampling plans — a sampled window-major sweep, submitted
#      twice, costs exactly one functional planning pass per workload
#      across the whole fleet (summed pubsd_snapshot_plans_total), however
#      many nodes hold its cells.
#   5. Seeded planning — the same sweep at a new fast-forward costs one more
#      pass per workload fleet-wide (each may start from a resident snapshot
#      of the earlier geometry) and matches a plain daemon's from-zero plan
#      byte for byte.
#
# All daemons listen on kernel-chosen ports. Usage:
#   scripts/cluster_smoke.sh [path-to-pubsd-binary]
set -euo pipefail

PUBSD=${1:-}
if [[ -z "$PUBSD" ]]; then
  go build -o /tmp/pubsd ./cmd/pubsd
  PUBSD=/tmp/pubsd
fi

LOGS=$(mktemp -d)
PIDS=()
trap '((${#PIDS[@]})) && kill -9 "${PIDS[@]}" 2>/dev/null || true; rm -rf "$LOGS"' EXIT

# 4 machines x 2 workloads = 8 cells, windows explicit so every node derives
# the same content addresses.
SPEC='{"machines":[{"machine":"base"},{"machine":"pubs"},{"machine":"age"},{"machine":"pubs+age"}],"workloads":["matmul","chess"],"warmup":2000,"measure":8000}'
SPEC2='{"machines":[{"machine":"base"},{"machine":"pubs"},{"machine":"age"},{"machine":"pubs+age"}],"workloads":["goplay","pathfind"],"warmup":2000,"measure":8000}'

# start_daemon LOGFILE ARGS... — boots a daemon on a kernel-chosen port and
# sets DAEMON (its base URL). Runs in the top-level shell, not a command
# substitution: the daemon must not inherit a captured stdout, and PIDS must
# accumulate for the final drain.
start_daemon() {
  local log=$1; shift
  "$PUBSD" serve -addr 127.0.0.1:0 "$@" >/dev/null 2>>"$log" &
  local pid=$!
  PIDS+=("$pid")
  for i in $(seq 1 50); do
    local addr
    addr=$(sed -n 's/^pubsd: serving on \([0-9.]*:[0-9]*\) .*/\1/p' "$log" | tail -1)
    if [[ -n "$addr" ]]; then
      DAEMON=http://$addr
      curl -sf "$DAEMON/healthz" >/dev/null && return 0
    fi
    kill -0 "$pid" 2>/dev/null || { echo "daemon died at boot" >&2; cat "$log" >&2; exit 1; }
    sleep 0.2
  done
  echo "daemon never became healthy" >&2; cat "$log" >&2; exit 1
}

# metric BASE NAME — label-aware: sums every {node=...} series of NAME.
metric() {
  curl -sf "$1/metrics" | awk -v m="$2" \
    '($1 == m || index($1, m"{") == 1) && $1 !~ /quantile=/ {s += $2} END {print s+0}'
}

submit() { curl -sf -X POST "$1/v1/jobs" -d "$2" | jq -r .id; }

wait_done() { # BASE JOB
  for i in $(seq 1 300); do
    state=$(curl -sf "$1/v1/jobs/$2" | jq -r .state)
    case "$state" in
      done) return 0 ;;
      failed) echo "job $2 failed:" >&2; curl -sf "$1/v1/jobs/$2" | jq .errors >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $2 never finished (state=$state)" >&2; exit 1
}

results() { curl -sf "$1/v1/jobs/$2" | jq -S .results; }

# --- Reference: one plain daemon, no cluster anywhere. --------------------
start_daemon "$LOGS/ref.log" -workers 2; REF=$DAEMON
RJOB=$(submit "$REF" "$SPEC")
wait_done "$REF" "$RJOB"
R_REF=$(results "$REF" "$RJOB")
[[ $(echo "$R_REF" | jq length) == 8 ]] || { echo "reference run incomplete"; exit 1; }

# --- Fabric: coordinator A and one worker; two more join live. ------------
start_daemon "$LOGS/coord.log" -coordinator -node-id coordA; COORD=$DAEMON
start_daemon "$LOGS/w1.log" -workers 1 -node-id w1 -join "$COORD"; W1=$DAEMON
for i in $(seq 1 50); do
  [[ $(curl -sf "$COORD/v1/cluster/nodes" | jq '.peers | length') == 1 ]] && break
  [[ $i == 50 ]] && { echo "w1 never joined"; exit 1; }
  sleep 0.2
done

# With only w1 on the ring, every cell lands (and is cached) there.
CJOB=$(submit "$COORD" "$SPEC")
wait_done "$COORD" "$CJOB"
R_CLUSTER=$(results "$COORD" "$CJOB")
[[ "$R_REF" == "$R_CLUSTER" ]] || {
  echo "cluster results differ from single-node reference"
  diff <(echo "$R_REF") <(echo "$R_CLUSTER") | head -40
  exit 1
}
[[ $(metric "$W1" pubsd_sims_executed_total) == 8 ]] || { echo "w1 should have simulated all 8 cells"; exit 1; }
[[ $(metric "$COORD" pubsd_sims_executed_total) == 0 ]] || { echo "coordinator simulated locally"; exit 1; }

start_daemon "$LOGS/w2.log" -workers 1 -node-id w2 -join "$COORD"; W2=$DAEMON
start_daemon "$LOGS/w3.log" -workers 1 -node-id w3 -join "$COORD"; W3=$DAEMON
for i in $(seq 1 50); do
  [[ $(curl -sf "$COORD/v1/cluster/nodes" | jq '.peers | length') == 3 ]] && break
  [[ $i == 50 ]] && { echo "w2/w3 never joined"; exit 1; }
  sleep 0.2
done

# --- Exactly-once under a duplicate burst on the full ring. ---------------
# Four concurrent submissions of a fresh 8-cell spec: the coordinator's
# singleflight offers each unique cell to the fabric once, so the burst
# costs exactly 8 simulations across the whole fleet.
BURST_IDS=()
for i in 1 2 3 4; do
  BURST_IDS+=("$(submit "$COORD" "$SPEC2")")
done
for id in "${BURST_IDS[@]}"; do wait_done "$COORD" "$id"; done
B0=$(results "$COORD" "${BURST_IDS[0]}")
for id in "${BURST_IDS[@]:1}"; do
  [[ "$B0" == "$(results "$COORD" "$id")" ]] || { echo "burst jobs disagree"; exit 1; }
done
TOTAL_SIMS=$(( $(metric "$W1" pubsd_sims_executed_total) \
             + $(metric "$W2" pubsd_sims_executed_total) \
             + $(metric "$W3" pubsd_sims_executed_total) ))
[[ "$TOTAL_SIMS" == 16 ]] || { echo "duplicate burst re-simulated: $TOTAL_SIMS sims cluster-wide, want 16"; exit 1; }
REMOTE=$(metric "$COORD" pubsd_cluster_remote_cells_total)
[[ "$REMOTE" == 16 ]] || { echo "expected 16 remote cells at the coordinator, got $REMOTE"; exit 1; }

# --- Two-tier cache: a fresh coordinator over the re-sharded ring. --------
# Coordinator B has an empty local cache and all three workers on its ring,
# so most of SPEC's cells now belong to w2/w3 — which never simulated them.
# They must fetch w1's results by content address, not re-simulate.
start_daemon "$LOGS/coord2.log" -coordinator -node-id coordB \
  -peers "w1=$W1,w2=$W2,w3=$W3"
COORD2=$DAEMON
C2JOB=$(submit "$COORD2" "$SPEC")
wait_done "$COORD2" "$C2JOB"
[[ "$R_REF" == "$(results "$COORD2" "$C2JOB")" ]] || { echo "re-sharded rerun is not bit-identical"; exit 1; }
TOTAL_SIMS2=$(( $(metric "$W1" pubsd_sims_executed_total) \
              + $(metric "$W2" pubsd_sims_executed_total) \
              + $(metric "$W3" pubsd_sims_executed_total) ))
[[ "$TOTAL_SIMS2" == "$TOTAL_SIMS" ]] || { echo "re-sharded rerun re-simulated: $TOTAL_SIMS -> $TOTAL_SIMS2"; exit 1; }
PEER_HITS=$(( $(metric "$W1" pubsd_cluster_peer_cache_hits_total) \
            + $(metric "$W2" pubsd_cluster_peer_cache_hits_total) \
            + $(metric "$W3" pubsd_cluster_peer_cache_hits_total) ))
[[ "$PEER_HITS" -gt 0 ]] || { echo "no peer cache hits — the second tier never engaged"; exit 1; }

# --- Shared sampling plans: one functional pass per workload, fleet-wide. --
# A sampled window-major sweep over fresh workloads, submitted twice. The
# coordinator batches each (node, workload) group into one sweep dispatch
# and designates one planner per plan key; every other node adopts the
# serialized plan instead of paying its own fast-forward pass. The local
# pass counter (pubsd_snapshot_plans_total) never counts adopted plans, so
# its fleet-wide sum must equal the workload count exactly — and the
# duplicate submission must add nothing anywhere.
SPEC3='{"machines":[{"machine":"base"},{"machine":"pubs"},{"machine":"age"},{"machine":"pubs+age"}],"workloads":["parser","compress"],"warmup":2000,"measure":4000,"windows":2,"fast_forward":200000,"window_major":true}'
S1JOB=$(submit "$COORD" "$SPEC3")
wait_done "$COORD" "$S1JOB"
S2JOB=$(submit "$COORD" "$SPEC3")
wait_done "$COORD" "$S2JOB"
[[ "$(results "$COORD" "$S1JOB")" == "$(results "$COORD" "$S2JOB")" ]] || { echo "duplicated sampled sweeps disagree"; exit 1; }
[[ $(results "$COORD" "$S1JOB" | jq length) == 8 ]] || { echo "sampled sweep incomplete"; exit 1; }
PLANS=$(( $(metric "$W1" pubsd_snapshot_plans_total) \
        + $(metric "$W2" pubsd_snapshot_plans_total) \
        + $(metric "$W3" pubsd_snapshot_plans_total) ))
[[ "$PLANS" == 2 ]] || { echo "fleet paid $PLANS functional plans for 2 workloads — plan sharing is not exactly-once"; exit 1; }
TOTAL_SIMS3=$(( $(metric "$W1" pubsd_sims_executed_total) \
              + $(metric "$W2" pubsd_sims_executed_total) \
              + $(metric "$W3" pubsd_sims_executed_total) ))
[[ "$TOTAL_SIMS3" == $((TOTAL_SIMS + 8)) ]] || { echo "sampled sweep re-simulated: $TOTAL_SIMS3 sims, want $((TOTAL_SIMS + 8))"; exit 1; }

# --- Seeded planning: a new geometry over resident programs. --------------
# The same sweep 64 instructions further on. The fleet plans each workload
# once more, and the node that does may fast-forward from the earlier
# geometry's snapshots instead of from instruction 0; the results must
# match the plain daemon, which plans this geometry from zero.
SPEC4=$(echo "$SPEC3" | jq -c '.fast_forward = 200064')
S4JOB=$(submit "$COORD" "$SPEC4")
wait_done "$COORD" "$S4JOB"
R4JOB=$(submit "$REF" "$SPEC4")
wait_done "$REF" "$R4JOB"
R_S4=$(results "$COORD" "$S4JOB")
[[ $(echo "$R_S4" | jq length) == 8 ]] || { echo "seeded sweep incomplete"; exit 1; }
[[ "$R_S4" == "$(results "$REF" "$R4JOB")" ]] || {
  echo "seeded sweep differs from the plain daemon's from-zero plan"
  diff <(echo "$R_S4") <(results "$REF" "$R4JOB") | head -40
  exit 1
}
PLANS4=$(( $(metric "$W1" pubsd_snapshot_plans_total) \
         + $(metric "$W2" pubsd_snapshot_plans_total) \
         + $(metric "$W3" pubsd_snapshot_plans_total) ))
[[ "$PLANS4" == $((PLANS + 2)) ]] || { echo "new geometry cost $((PLANS4 - PLANS)) fleet passes for 2 workloads, want 2"; exit 1; }
SEEDED=$(( $(metric "$W1" pubsd_snapshot_seeded_plans_total) \
         + $(metric "$W2" pubsd_snapshot_seeded_plans_total) \
         + $(metric "$W3" pubsd_snapshot_seeded_plans_total) ))

# --- Graceful drain everywhere. -------------------------------------------
kill -TERM "${PIDS[@]}" 2>/dev/null || true
for pid in "${PIDS[@]}"; do
  wait "$pid" || { echo "daemon $pid exited non-zero"; exit 1; }
done
PIDS=()

echo "cluster smoke OK: cluster == single-node bit-identical, $TOTAL_SIMS3 sims for 24 unique cells across 3 workers, 0 duplicate sims, $PEER_HITS peer cache hits, $PLANS functional plans for 2 sampled workloads, $((PLANS4 - PLANS)) more ($SEEDED seeded) for a new geometry"
