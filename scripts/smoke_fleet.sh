#!/usr/bin/env bash
# Integration smoke for fleet mode: two loopscoped daemons process the
# same capture under different vantage names — one pushing events to
# loopscope-agg over the webhook, one serving /api/v1/loops for the
# aggregator to poll — and the aggregator must collapse the two views
# into one deduplicated fleet loop per underlying loop, each carrying
# both vantage attributions, joined on the stream identities each
# event carries. Then SIGKILL the aggregator and require a restart from
# its journal to serve the identical fleet loop set, and a third
# aggregator replaying the journal in reverse to serve the identical
# fleet loops document: the loop set does not depend on arrival order.
#
# Run from the repository root: ./scripts/smoke_fleet.sh
# Set FLEET_SMOKE_JOURNAL to keep a copy of the aggregator journal
# (CI archives it as an artifact).
set -euo pipefail

work="$(mktemp -d)"
cleanup() {
    local pids
    pids="$(jobs -p)" || true
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/bin/" ./cmd/loopscoped ./cmd/loopscope-agg ./cmd/tracegen ./cmd/lsq

# One deterministic capture; both vantages watch the same link, so
# their loop event sets are identical up to the vantage stamp. Seed 1
# closes every loop inside the trace: no truncated drain-time events,
# so the long-lived pull vantage publishes the same set as the push
# vantage that exits.
"$work/bin/tracegen" -duration 40s -pps 600 -loops 8 -prefixes 64 -seed 1 \
    "$work/fleet.lspt" >/dev/null

daemon_flags=(-poll 25ms -checkpoint-interval 100ms -merge-window 2s)

# scrape_url waits for a daemon to announce its HTTP listener.
scrape_url() { # logfile pattern
    local url=""
    for _ in $(seq 1 100); do
        url="$(sed -n "s|.*$2 url=\(http://[^ ]*\).*|\1|p" "$1" | head -n1)"
        [ -n "$url" ] && break
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "FAIL: no '$2 url=' line in $1" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$url"
}

echo "== vantage bb2: serve the pull transport"
"$work/bin/loopscoped" -tail "trace=$work/fleet.lspt" -vantage bb2 \
    -journal "$work/bb2.jsonl" -http 127.0.0.1:0 -retain 1h -exit-idle 120s \
    "${daemon_flags[@]}" 2>"$work/bb2.log" &
bb2url="$(scrape_url "$work/bb2.log" "serving API")"

echo "== loopscope-agg: poll bb2, accept pushes"
"$work/bin/loopscope-agg" -http 127.0.0.1:0 -poll "bb2=$bb2url" \
    -poll-interval 200ms \
    -journal "$work/agg.jsonl" -checkpoint "$work/agg-cp.json" \
    2>"$work/agg.log" &
aggpid=$!
aggurl="$(scrape_url "$work/agg.log" "serving fleet API")"

echo "== vantage bb1: push transport into the aggregator"
"$work/bin/loopscoped" -tail "trace=$work/fleet.lspt" -vantage bb1 \
    -journal "$work/bb1.jsonl" -webhook "${aggurl}api/v1/ingest" -exit-idle 1s \
    "${daemon_flags[@]}" 2>"$work/bb1.log"

# Wait until the aggregator has heard the same number of observations
# from both vantages (bb1 pushed everything before exiting; the bb2
# poller catches up on its own cadence).
count_obs() { # vantage
    "$work/bin/lsq" -addr "$aggurl" fleet vantages \
        | tr -d ' \n' | sed -n "s/.*\"name\":\"$1\",\"transports\":\[[^]]*\],\"observations\":\([0-9]*\).*/\1/p"
}
obs1=0 obs2=0
for _ in $(seq 1 150); do
    obs1="$(count_obs bb1)"; obs1="${obs1:-0}"
    obs2="$(count_obs bb2)"; obs2="${obs2:-0}"
    [ "$obs1" -ge 1 ] && [ "$obs1" = "$obs2" ] && break
    sleep 0.2
done
if [ "$obs1" -lt 1 ] || [ "$obs1" != "$obs2" ]; then
    echo "FAIL: vantage observations never converged (bb1=$obs1 bb2=$obs2)" >&2
    "$work/bin/lsq" -addr "$aggurl" fleet vantages >&2 || true
    cat "$work/agg.log" >&2
    exit 1
fi

echo "== fleet loops: one deduplicated cluster per loop, both vantages attributed"
"$work/bin/lsq" -addr "$aggurl" fleet loops > "$work/fleet-loops.json"
loops="$(grep -c '"id":' "$work/fleet-loops.json")" || loops=0
pairs="$(grep -c '"observations": 2' "$work/fleet-loops.json")" || pairs=0
if [ "$loops" -lt 1 ]; then
    echo "FAIL: aggregator reports no fleet loops" >&2
    cat "$work/fleet-loops.json" >&2
    exit 1
fi
if [ "$loops" != "$obs1" ] || [ "$loops" != "$pairs" ]; then
    echo "FAIL: dedup broke: $loops fleet loops from $obs1+$obs2 observations ($pairs two-vantage clusters)" >&2
    cat "$work/fleet-loops.json" >&2
    exit 1
fi
# Every observation must carry its identity sketch.
rows="$(grep -c '"eventId":' "$work/fleet-loops.json")" || rows=0
idents="$(grep -c '"idents":' "$work/fleet-loops.json")" || idents=0
if [ "$rows" -lt 1 ] || [ "$idents" != "$rows" ]; then
    echo "FAIL: $idents of $rows evidence rows carry identities" >&2
    cat "$work/fleet-loops.json" >&2
    exit 1
fi
# Every cluster must credit both vantages.
attributions="$(tr -d ' \n' < "$work/fleet-loops.json" | grep -o '"vantages":\["bb1","bb2"\]' | wc -l)"
if [ "$attributions" != "$loops" ]; then
    echo "FAIL: only $attributions of $loops fleet loops credit both vantages" >&2
    cat "$work/fleet-loops.json" >&2
    exit 1
fi
"$work/bin/lsq" -addr "$aggurl" fleet stats > "$work/fleet-stats.json"
stat_loops="$(sed -n 's/.*"loops": \([0-9]*\),*/\1/p' "$work/fleet-stats.json" | head -n1)"
if [ -z "$stat_loops" ] || [ "$stat_loops" != "$((obs1 + obs2))" ]; then
    echo "FAIL: fleet stats counted $stat_loops observations, want $((obs1 + obs2))" >&2
    cat "$work/fleet-stats.json" >&2
    exit 1
fi
echo "OK: $loops fleet loops deduplicated from $((obs1 + obs2)) observations, all dual-attributed"

echo "== aggregator status page: both vantages listed"
fetch() { if command -v curl >/dev/null 2>&1; then curl -fsS "$1"; else wget -qO- "$1"; fi; }
# Capture the page before grepping it: see the pipefail note in
# smoke_loopscoped.sh.
fetch "${aggurl}api/v1/statusz" > "$work/agg-statusz.html"
for want in loopscope-agg bb1 bb2; do
    if ! grep -q "$want" "$work/agg-statusz.html"; then
        echo "FAIL: the aggregator's /api/v1/statusz does not show $want" >&2
        cat "$work/agg-statusz.html" >&2
        exit 1
    fi
done

echo "== pipeline provenance: detect->cluster latency populated for both vantages"
"$work/bin/lsq" -addr "$aggurl" fleet latency -json > "$work/fleet-latency.json"
flat_latency="$(tr -d ' \n' < "$work/fleet-latency.json")"
for v in bb1 bb2; do
    if ! echo "$flat_latency" | grep -q "\"segment\":\"detect_cluster\",\"vantage\":\"$v\""; then
        echo "FAIL: no detect_cluster latency row for vantage $v" >&2
        cat "$work/fleet-latency.json" >&2
        exit 1
    fi
done
# Each vantage's detect->cluster histogram must have absorbed every
# observation the aggregator accepted from it.
lat_counts="$(echo "$flat_latency" \
    | grep -o '"segment":"detect_cluster","vantage":"bb[12]","count":[0-9]*' \
    | sed 's/.*"count"://')"
for c in $lat_counts; do
    if [ "$c" != "$obs1" ]; then
        echo "FAIL: detect_cluster count $c, want $obs1 per vantage" >&2
        cat "$work/fleet-latency.json" >&2
        exit 1
    fi
done
# The human table is the operator's entry point; render it for the log.
"$work/bin/lsq" -addr "$aggurl" fleet latency -vantage bb2

echo "== exemplar trail IDs resolve against the originating daemon"
trail_id="$(echo "$flat_latency" \
    | grep -o '"segment":"detect_cluster","vantage":"bb2".*' \
    | grep -o '"eventId":"[^"]*"' | head -n1 | sed 's/"eventId":"\(.*\)"/\1/')"
if [ -z "$trail_id" ]; then
    echo "FAIL: no exemplar on bb2's detect_cluster row" >&2
    cat "$work/fleet-latency.json" >&2
    exit 1
fi
if ! "$work/bin/lsq" -addr "$bb2url" trace "$trail_id" > "$work/trail.json"; then
    echo "FAIL: exemplar trail $trail_id did not resolve at bb2's /api/v1/trace" >&2
    exit 1
fi
if ! grep -q "\"$trail_id\"" "$work/trail.json"; then
    echo "FAIL: bb2 trace response does not echo trail id $trail_id" >&2
    cat "$work/trail.json" >&2
    exit 1
fi
echo "OK: detect->cluster histograms cover all $obs1 observations per vantage; exemplar $trail_id resolved"

echo "== kill -9 the aggregator; a journal replay must serve the same set"
loop_ids() { sed -n 's/.*"id": "\(f[0-9a-f]*\)".*/\1/p' "$1" | sort; }
ref_ids="$(loop_ids "$work/fleet-loops.json")"
kill -9 "$aggpid" 2>/dev/null || true
wait "$aggpid" 2>/dev/null || true
"$work/bin/loopscope-agg" -http 127.0.0.1:0 \
    -journal "$work/agg.jsonl" -checkpoint "$work/agg-cp.json" \
    2>"$work/agg2.log" &
agg2pid=$!
aggurl2="$(scrape_url "$work/agg2.log" "serving fleet API")"
"$work/bin/lsq" -addr "$aggurl2" fleet loops > "$work/fleet-loops2.json"
replay_ids="$(loop_ids "$work/fleet-loops2.json")"
if [ "$ref_ids" != "$replay_ids" ]; then
    echo "FAIL: fleet loop set changed across kill -9 + journal replay" >&2
    diff <(echo "$ref_ids") <(echo "$replay_ids") >&2 || true
    exit 1
fi
# Provenance close-out reads only journaled stamps, so the replayed
# aggregator must reproduce the pipeline-latency document byte for
# byte — sketches, quantiles, exemplars and all.
"$work/bin/lsq" -addr "$aggurl2" fleet latency -json > "$work/fleet-latency2.json"
if ! cmp -s "$work/fleet-latency.json" "$work/fleet-latency2.json"; then
    echo "FAIL: pipeline-latency document changed across kill -9 + journal replay" >&2
    diff "$work/fleet-latency.json" "$work/fleet-latency2.json" >&2 || true
    exit 1
fi
kill "$agg2pid" 2>/dev/null || true
wait "$agg2pid" 2>/dev/null || true

echo "== the journal replayed in reverse must serve the same fleet loops document"
tac "$work/agg.jsonl" > "$work/rev.jsonl"
"$work/bin/loopscope-agg" -http 127.0.0.1:0 -journal "$work/rev.jsonl" \
    2>"$work/agg3.log" &
agg3pid=$!
aggurl3="$(scrape_url "$work/agg3.log" "serving fleet API")"
"$work/bin/lsq" -addr "$aggurl3" fleet loops > "$work/fleet-loops3.json"
kill "$agg3pid" 2>/dev/null || true
wait "$agg3pid" 2>/dev/null || true
if ! cmp -s "$work/fleet-loops.json" "$work/fleet-loops3.json"; then
    echo "FAIL: the fleet loops document depends on the order observations arrive in" >&2
    diff "$work/fleet-loops.json" "$work/fleet-loops3.json" >&2 || true
    exit 1
fi

if [ -n "${FLEET_SMOKE_JOURNAL:-}" ]; then
    cp "$work/agg.jsonl" "$FLEET_SMOKE_JOURNAL"
fi
echo "OK: journal replay reproduced all $loops fleet loops and the latency document byte-identically after kill -9, and the reversed journal the fleet loops document"
