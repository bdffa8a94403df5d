#!/usr/bin/env bash
# bench_pairs.sh — alternating parent/change pairs of one benchmark workload
# (make bench-pairs), the measurement every claimed gain in this repository
# rests on (choosing-metrics §8): PARENT is exported into .bench_build/, the
# working tree's bench/ is laid over it, both benchmark binaries are built
# once and run in turn with tracing off — the side that goes first alternates
# — and per side every run, the median and the quartiles are printed, then the
# pairs won on op_ms and the verdict: a gain needs ten pairs or more, at least
# nine tenths of them won and the medians apart by more than the parent's own
# inter-quartile distance. The export is a `git archive`, not a `git worktree`: nothing is
# registered in .git and nothing is left outside .bench_build/.
#
#   scripts/bench_pairs.sh PARENT WORKLOAD [SEED [PAIRS [-- harness flags]]]
#   scripts/bench_pairs.sh HEAD~1 round-bulk 2 10
#   scripts/bench_pairs.sh HEAD round-wire 1 1 -- --seconds 1   # CI's smoke
#
# It refuses to run when bench/ or BENCHMARK.json differs from PARENT's: a
# change that claims a gain may not edit the instrument it is measured with.
set -euo pipefail

usage="usage: $0 PARENT WORKLOAD [SEED [PAIRS [-- harness flags]]]"
parent=${1:?$usage}
workload=${2:?$usage}
seed=${3:-1}
pairs=${4:-10}
shift $(($# < 4 ? $# : 4))
[ "${1:-}" = "--" ] && shift

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rev=$(git rev-parse --verify --quiet "$parent^{commit}") || { echo "bench-pairs: no commit $parent" >&2; exit 2; }
if ! git diff --quiet "$rev" -- bench BENCHMARK.json || [ -n "$(git status --porcelain -- bench BENCHMARK.json)" ]; then
    echo "bench-pairs: bench/ or BENCHMARK.json differs from $parent; refusing to compare" >&2
    exit 2
fi

out="$root/.bench_build"
side="$out/pairs/parent"
rm -rf "$out/pairs"
mkdir -p "$side" "$out/tmp"
git archive "$rev" | tar -x -C "$side"
rm -rf "$side/bench"
cp -R bench "$side/bench"

# The same sealed toolchain environment as bench/run.sh.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
echo "bench-pairs: building parent $(git rev-parse --short "$rev") and the working tree"
(cd "$side/bench" && go build -o "$out/pairs/bench-parent" .)
(cd bench && go build -o "$out/pairs/bench-change" .)

# run SIDE: one run from that side's root; prints "op_ms setup_s uplink downlink quality correct failed".
run() {
    local dir="$root"
    [ "$1" = parent ] && dir="$side"
    (cd "$dir" && "$out/pairs/bench-$1" --workload "$workload" --seed "$seed" --trace 0 "${@:2}") | awk '
        $1 == "op_ms" || $1 == "setup_s" || $1 ~ /link_bytes_per_kpoint$/ || $1 == "quality_p2_pct" { v[$1] = $2 }
        /^\{"correct":/ { correct = ($0 ~ /"correct":true/) ? "true" : "false"; match($0, /"failed":[0-9]+/); failed = substr($0, RSTART + 9, RLENGTH - 9) }
        END { print v["op_ms"], v["setup_s"], v["uplink_bytes_per_kpoint"], v["downlink_bytes_per_kpoint"], v["quality_p2_pct"], correct, failed }'
}

log="$out/pairs/runs.txt"
: >"$log"
echo "pair side op_ms setup_s uplink_bytes_per_kpoint downlink_bytes_per_kpoint quality_p2_pct correct failed"
for ((i = 1; i <= pairs; i++)); do
    order="parent change"
    ((i % 2 == 0)) && order="change parent"
    for s in $order; do
        line=$(run "$s" "$@")
        echo "pair $i $s $line" | tee -a "$log"
    done
done

awk -v pairs="$pairs" '
function quantile(a, n, q,    h, lo) { h = (n - 1) * q + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
function summary(name, v, n,    i, j, t, s) {
    for (i = 1; i <= n; i++) s[i] = v[i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    q1[name] = quantile(s, n, 0.25); med[name] = quantile(s, n, 0.5); q3[name] = quantile(s, n, 0.75)
    printf "%-6s op_ms median %.6g  quartiles [%.6g, %.6g]  runs", name, med[name], q1[name], q3[name]
    for (i = 1; i <= n; i++) printf " %s", v[i]
    printf "\n"
}
{
    op[$3, $2] = $4
    if ($9 != "true" || $10 != 0) bad++
    key = $6 " " $7 " " $8
    if (seen == "") seen = key; else if (key != seen) moved++
}
END {
    for (i = 1; i <= pairs; i++) { p[i] = op["parent", i]; c[i] = op["change", i]; if (c[i] < p[i]) won++; else if (c[i] > p[i]) lost++ }
    summary("parent", p, pairs); summary("change", c, pairs)
    gap = med["parent"] - med["change"]; iqr = q3["parent"] - q1["parent"]
    printf "change wins %d of %d pairs (loses %d); medians apart by %.6g (%+.1f%%), parent inter-quartile distance %.6g\n", won, pairs, lost, gap, -100 * gap / med["parent"], iqr
    if (bad) printf "NOT CORRECT: %d runs failed laps or the correctness gate\n", bad
    if (moved) printf "MOVED: bytes or quality differ between runs (%d of them)\n", moved
    if (pairs < 10) print "verdict: none (a claim needs at least ten pairs)"
    else if (!bad && 10 * won >= 9 * pairs && gap > iqr) print "verdict: gain (at least 9/10 of the pairs, medians apart by more than the parent spread)"
    else if (!bad && 10 * lost >= 9 * pairs && -gap > iqr) print "verdict: regression"
    else print "verdict: no claim (inside the spread, too few pairs won, or failed runs)"
    exit bad ? 1 : 0
}' "$log"
