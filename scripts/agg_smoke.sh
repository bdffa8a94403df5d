#!/bin/sh
# agg_smoke.sh — loopback two-level aggregation tree smoke over the real
# binaries (make agg-smoke): four dbdc-site processes upload to two
# dbdc-agg leaf aggregators, which condense and forward to one root
# dbdc-server; every process must exit 0 and every site must label all of
# its points against the root's global model. See docs/hierarchy.md.
set -eu

GO=${GO:-go}
EPS=1.2
MINPTS=4
ROOT=127.0.0.1:17070
AGG_A=127.0.0.1:17171
AGG_B=127.0.0.1:17172

TMP=$(mktemp -d /tmp/dbdc-agg-smoke.XXXXXX)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

echo "agg-smoke: building binaries"
$GO build -o "$TMP/bin/" ./cmd/dbdc-server ./cmd/dbdc-agg ./cmd/dbdc-site ./cmd/datagen

for s in 0 1 2 3; do
    "$TMP/bin/datagen" -dataset A -n 800 -seed $((s + 1)) -o "$TMP/site-$s.csv"
done

echo "agg-smoke: starting root server on $ROOT"
"$TMP/bin/dbdc-server" -addr "$ROOT" -sites 2 -eps $EPS -minpts $MINPTS \
    -rounds 1 -report-json "$TMP/root.json" &
ROOT_PID=$!
sleep 0.3

echo "agg-smoke: starting leaf aggregators on $AGG_A and $AGG_B"
"$TMP/bin/dbdc-agg" -addr "$AGG_A" -id agg-a -parent "$ROOT" -expect 2 \
    -eps $EPS -minpts $MINPTS -report-json "$TMP/agg-a.json" &
AGG_A_PID=$!
"$TMP/bin/dbdc-agg" -addr "$AGG_B" -id agg-b -parent "$ROOT" -expect 2 \
    -eps $EPS -minpts $MINPTS -rep-budget 8 &
AGG_B_PID=$!
sleep 0.3

echo "agg-smoke: running sites"
"$TMP/bin/dbdc-site" -addr "$AGG_A" -id site-a0 -input "$TMP/site-0.csv" \
    -eps $EPS -minpts $MINPTS -o "$TMP/labels-a0.txt" &
S0=$!
"$TMP/bin/dbdc-site" -addr "$AGG_A" -id site-a1 -input "$TMP/site-1.csv" \
    -eps $EPS -minpts $MINPTS -o "$TMP/labels-a1.txt" &
S1=$!
"$TMP/bin/dbdc-site" -addr "$AGG_B" -id site-b0 -input "$TMP/site-2.csv" \
    -eps $EPS -minpts $MINPTS -o "$TMP/labels-b0.txt" &
S2=$!
"$TMP/bin/dbdc-site" -addr "$AGG_B" -id site-b1 -input "$TMP/site-3.csv" \
    -eps $EPS -minpts $MINPTS -o "$TMP/labels-b1.txt" &
S3=$!

for pid in $S0 $S1 $S2 $S3; do
    wait $pid || { echo "agg-smoke: FAIL: a site exited non-zero"; exit 1; }
done
wait $AGG_A_PID || { echo "agg-smoke: FAIL: agg-a exited non-zero"; exit 1; }
wait $AGG_B_PID || { echo "agg-smoke: FAIL: agg-b exited non-zero"; exit 1; }
wait $ROOT_PID || { echo "agg-smoke: FAIL: root server exited non-zero"; exit 1; }

# Every site must have labelled all of its points against the root model.
for f in labels-a0 labels-a1 labels-b0 labels-b1; do
    lines=$(wc -l < "$TMP/$f.txt")
    [ "$lines" -eq 800 ] || { echo "agg-smoke: FAIL: $f has $lines labels, want 800"; exit 1; }
done
# The root's report must carry the forwarded provenance of both leaves.
[ "$(grep -c '"Level": 1' "$TMP/root.json")" -eq 2 ] || {
    echo "agg-smoke: FAIL: root report lacks aggregation provenance"; exit 1; }
grep -qE '"ForwardDuration": [1-9]' "$TMP/agg-a.json" || {
    echo "agg-smoke: FAIL: agg-a report lacks the forward phase"; exit 1; }

echo "agg-smoke: OK (2 levels, 4 sites, provenance present)"
