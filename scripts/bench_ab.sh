#!/usr/bin/env bash
# Paired A/B performance gate: this checkout against <rev> on every
# workload of BENCHMARK.json, through pubsbench end to end.
#
# <rev> is checked out in a detached git worktree under .bench_build/ab/
# and removed on exit. Each workload gets PAIRS pairs of runs,
#
#   bash pubsbench/run.sh --workload W --seed i --seconds <run_seconds> --trace 0
#
# one in the worktree (parent) and one here (change), both on seed i. The
# side that runs first alternates from pair to pair, so a drift of the host
# over time falls on both sides alike.
#
# For each workload and end-to-end metric it prints the pairs the change
# won, the pairs it lost by more than the metric's bound, and the median
# and quartiles of both sides (statistics.quantiles(n=4), as pubsbench
# --steady computes them). It exits 1 when
#   - in a majority of pairs a metric is worse than its paired parent run
#     by more than its BENCHMARK.json bound, in its "better" direction,
#   - any change run reports "correct": false, or
#   - the change's runs fail more operations in total than the parent's.
#
# Usage: scripts/bench_ab.sh <rev>
set -euo pipefail

PAIRS=5

[[ $# == 1 ]] || { echo "usage: scripts/bench_ab.sh <rev>" >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"
REV=$(git rev-parse --verify "$1^{commit}")
RUN_SECONDS=$(jq -r .run_seconds BENCHMARK.json)
WORKLOADS=$(jq -r '.workloads[].name' BENCHMARK.json)

mkdir -p .bench_build/ab
WT=$PWD/.bench_build/ab/parent-$$
OUT=$PWD/.bench_build/ab/runs-$$
trap 'git worktree remove --force "$WT" 2>/dev/null || rm -rf "$WT"; git worktree prune; rm -rf "$OUT"' EXIT
git worktree add --quiet --detach "$WT" "$REV"
mkdir -p "$OUT"

# run SIDE DIR WORKLOAD SEED — one pubsbench run; its output goes to
# $OUT/WORKLOAD.SIDE.SEED.log and its result line to .json beside it.
run() {
  local side=$1 dir=$2 w=$3 i=$4 f=$OUT/$3.$1.$4
  echo "bench_ab: $w pair $i: $side" >&2
  (cd "$dir" && bash pubsbench/run.sh --workload "$w" --seed "$i" \
    --seconds "$RUN_SECONDS" --trace 0) >"$f.log" 2>&1 || true
  tail -n 1 "$f.log" >"$f.json"
  if ! jq -e .metrics "$f.json" >/dev/null 2>&1; then
    echo "bench_ab: $w seed $i ($side) printed no result:" >&2
    tail -n 20 "$f.log" >&2
    exit 1
  fi
}

for w in $WORKLOADS; do
  for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2)); then
      run parent "$WT" "$w" "$i"; run change . "$w" "$i"
    else
      run change . "$w" "$i"; run parent "$WT" "$w" "$i"
    fi
  done
done

# One document: per workload, the parent's and the change's results in
# seed order.
for w in $WORKLOADS; do
  jq -n --arg w "$w" \
    --slurpfile p <(for ((i = 1; i <= PAIRS; i++)); do cat "$OUT/$w.parent.$i.json"; done) \
    --slurpfile c <(for ((i = 1; i <= PAIRS; i++)); do cat "$OUT/$w.change.$i.json"; done) \
    '{workload: $w, parent: $p, change: $c}'
done | jq -s --slurpfile bench BENCHMARK.json '
  # statistics.quantiles(data, n=4), method "exclusive".
  def quartiles: sort as $d | ($d | length) as $n
    | [range(1; 4) as $i | ($i * ($n + 1) / 4 | floor) as $j0
       | ([1, ([$j0, $n - 1] | min)] | max) as $j
       | ($i * ($n + 1) - $j * 4) as $delta
       | ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4];
  def worse($m; $c; $p):
    if $m.better == "lower" then $c > $p * (1 + $m.bound) else $c < $p * (1 - $m.bound) end;
  def better($m; $c; $p): if $m.better == "lower" then $c < $p else $c > $p end;
  [.[] as $r | $bench[0].end_to_end[] as $m
   | [$r.parent[].metrics[$m.name].value] as $p
   | [$r.change[].metrics[$m.name].value] as $c
   | [range(0; $p | length) | select(better($m; $c[.]; $p[.]))] as $wins
   | [range(0; $p | length) | select(worse($m; $c[.]; $p[.]))] as $worse
   | {row: ([$r.workload, $m.name, "\($wins | length)/\($p | length)",
             "\($worse | length)/\($p | length)"]
            + ($p | quartiles | [.[1], .[0], .[2]]) + ($c | quartiles | [.[1], .[0], .[2]])),
      regressed: (($worse | length) * 2 > ($p | length))}] as $rows
  | {rows: $rows,
     incorrect: [.[] | .workload as $w | .change | to_entries[]
                 | select(.value.correct != true) | "\($w) seed \(.key + 1)"],
     parent_failed: ([.[].parent[].failed] | add),
     change_failed: ([.[].change[].failed] | add)}
' >"$OUT/summary.json"

printf '%-16s %-17s %5s %5s   %-32s %s\n' workload metric wins worse \
  'parent median [q1, q3]' 'change median [q1, q3]'
jq -r '.rows[] | .row + [if .regressed then "REGRESSED" else "" end] | @tsv' "$OUT/summary.json" |
  while IFS=$'\t' read -r w m wins worse pm pq1 pq3 cm cq1 cq3 flag; do
    printf '%-16s %-17s %5s %5s   %-32s %-32s %s\n' "$w" "$m" "$wins" "$worse" \
      "$(printf '%.4g [%.4g, %.4g]' "$pm" "$pq1" "$pq3")" \
      "$(printf '%.4g [%.4g, %.4g]' "$cm" "$cq1" "$cq3")" "$flag"
  done

status=0
jq -r '.rows[] | select(.regressed) | .row
  | "bench_ab: \(.[0]) \(.[1]) worse than the parent by more than its bound in \(.[3]) pairs"' \
  "$OUT/summary.json" >&2
jq -e '[.rows[] | select(.regressed)] | length == 0' "$OUT/summary.json" >/dev/null || status=1
jq -r '.incorrect[] | "bench_ab: change run \(.) reported \"correct\": false"' "$OUT/summary.json" >&2
jq -e '.incorrect | length == 0' "$OUT/summary.json" >/dev/null || status=1
read -r pf cf < <(jq -r '"\(.parent_failed) \(.change_failed)"' "$OUT/summary.json")
echo "failed operations: parent $pf, change $cf"
((cf <= pf)) || { echo "bench_ab: the change failed more operations than the parent" >&2; status=1; }
exit $status
