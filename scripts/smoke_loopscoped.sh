#!/usr/bin/env bash
# Integration smoke for the loopscoped daemon: run it against a
# growing capture, SIGKILL it mid-run, restart it from the checkpoint,
# and require the journal's final loop-event set to be identical (by
# ID) to an uninterrupted reference run, with zero duplicate IDs.
#
# Run from the repository root: ./scripts/smoke_loopscoped.sh
set -euo pipefail

work="$(mktemp -d)"
cleanup() {
    local pids
    pids="$(jobs -p)" || true
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/bin/" ./cmd/loopscoped ./cmd/tracegen ./cmd/lsq

# The same seed makes tracegen emit byte-identical records, so the
# reference file and the grown file carry the same ground truth.
gen_flags=(-duration 40s -pps 600 -loops 8 -prefixes 64 -seed 7)
# The merge window must fit inside the 40s trace or loops never
# finalize in stream time and everything drains as truncated.
daemon_flags=(-poll 25ms -exit-idle 1s -checkpoint-interval 100ms -merge-window 2s)

ids()       { sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$1" | sort; }
final_ids() { grep -v '"truncated":true' "$1" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | sort; }

echo "== reference run (uninterrupted)"
"$work/bin/tracegen" "${gen_flags[@]}" "$work/ref.lspt" >/dev/null
"$work/bin/loopscoped" -tail "trace=$work/ref.lspt" -journal "$work/ref.jsonl" \
    -checkpoint "$work/ref-cp.json" "${daemon_flags[@]}" 2>"$work/ref.log"
ref_finals="$(final_ids "$work/ref.jsonl")"
if [ -z "$ref_finals" ]; then
    echo "FAIL: reference run detected no loops" >&2
    exit 1
fi

# The same capture under the same source name, read as a one-segment
# directory and as a feed, must give the same loops: the directory the
# same finals, the feed (whose clean close completes the session) the
# tail's finals plus what the tail drained as truncated at idle exit,
# without the -t<end> suffix.
no_dups() {
    local dups
    dups="$(ids "$1" | uniq -d)"
    if [ -n "$dups" ]; then
        echo "FAIL: duplicate event IDs in $(basename "$1"):" >&2
        echo "$dups" >&2
        exit 1
    fi
}
echo "== kind equivalence: the reference capture via -watch and -listen"
mkdir "$work/watch"
cp "$work/ref.lspt" "$work/watch/seg-000.lspt"
"$work/bin/loopscoped" -watch "trace=$work/watch" -journal "$work/watch.jsonl" \
    "${daemon_flags[@]}" 2>"$work/watch.log"
if [ "$ref_finals" != "$(final_ids "$work/watch.jsonl")" ]; then
    echo "FAIL: -watch finals differ from the -tail reference" >&2
    diff <(echo "$ref_finals") <(final_ids "$work/watch.jsonl") >&2 || true
    exit 1
fi
no_dups "$work/watch.jsonl"

# A longer -exit-idle than the other runs: the feed counts as idle from
# the moment it listens until the capture is connected.
: >"$work/feed.log"
"$work/bin/loopscoped" -listen "trace=tcp:127.0.0.1:0" -journal "$work/feed.jsonl" \
    "${daemon_flags[@]}" -exit-idle 5s 2>"$work/feed.log" &
fpid=$!
port=""
for _ in $(seq 1 100); do
    port="$(sed -n 's/.*listening addr=127\.0\.0\.1:\([0-9]*\).*/\1/p' "$work/feed.log" | head -n1)"
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "FAIL: the -listen daemon never logged its address" >&2
    cat "$work/feed.log" >&2
    exit 1
fi
cat "$work/ref.lspt" > "/dev/tcp/127.0.0.1/$port"
wait "$fpid"
want_feed="$( { final_ids "$work/ref.jsonl"
    grep '"truncated":true' "$work/ref.jsonl" | sed -n 's/.*"id":"\([^"]*\)-t[0-9a-f]*".*/\1/p'; } | sort)"
if [ "$want_feed" != "$(final_ids "$work/feed.jsonl")" ]; then
    echo "FAIL: -listen finals are not the -tail finals plus its truncated IDs" >&2
    diff <(echo "$want_feed") <(final_ids "$work/feed.jsonl") >&2 || true
    exit 1
fi
no_dups "$work/feed.jsonl"
echo "OK: -watch and -listen agree with -tail ($(echo "$want_feed" | wc -l) feed finals, no duplicate IDs)"

echo "== interrupted run: tail a growing file, SIGKILL, restart from checkpoint"
"$work/bin/tracegen" "${gen_flags[@]}" -live-every 800 -live-delay 120ms \
    "$work/grow.lspt" >/dev/null &
genpid=$!
sleep 0.5
"$work/bin/loopscoped" -tail "trace=$work/grow.lspt" -journal "$work/live.jsonl" \
    -checkpoint "$work/cp.json" "${daemon_flags[@]}" 2>"$work/live1.log" &
dpid=$!
sleep 1.5
kill -9 "$dpid" 2>/dev/null || true
rc=0
wait "$dpid" || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "FAIL: daemon was not killed mid-run (exit status $rc)" >&2
    cat "$work/live1.log" >&2
    exit 1
fi
wait "$genpid"
if [ ! -f "$work/cp.json" ]; then
    echo "note: no checkpoint before the kill; resume starts fresh (journal still dedups)"
fi

"$work/bin/loopscoped" -tail "trace=$work/grow.lspt" -journal "$work/live.jsonl" \
    -checkpoint "$work/cp.json" "${daemon_flags[@]}" 2>"$work/live2.log"

live_finals="$(final_ids "$work/live.jsonl")"
if [ "$ref_finals" != "$live_finals" ]; then
    echo "FAIL: final loop sets differ between reference and resumed run" >&2
    diff <(echo "$ref_finals") <(echo "$live_finals") >&2 || true
    exit 1
fi
dups="$(ids "$work/live.jsonl" | uniq -d)"
if [ -n "$dups" ]; then
    echo "FAIL: duplicate event IDs in the journal:" >&2
    echo "$dups" >&2
    exit 1
fi
# Every journaled event must carry its provenance stamps up to the
# publish hop (the journaled hop itself lands after the line is
# written, so it can only appear downstream).
prov_lines="$(grep -c '"prov":{"detectedNs":[0-9]*,"publishedNs":[0-9]*' "$work/ref.jsonl")" || prov_lines=0
journal_lines="$(wc -l < "$work/ref.jsonl")"
if [ "$prov_lines" -lt 1 ] || [ "$prov_lines" != "$journal_lines" ]; then
    echo "FAIL: only $prov_lines of $journal_lines journal lines carry detect/publish provenance" >&2
    head -n3 "$work/ref.jsonl" >&2
    exit 1
fi
echo "OK: $(echo "$ref_finals" | wc -l) final loops, identical sets, no duplicate IDs, provenance on all $journal_lines journal lines"

echo "== observability run: /api/v1/statusz and /api/v1/trace round-trip"
if command -v curl >/dev/null 2>&1; then
    fetch() { curl -fsS "$1"; }
elif command -v wget >/dev/null 2>&1; then
    fetch() { wget -qO- "$1"; }
else
    echo "SKIP: neither curl nor wget available for the HTTP phase"
    exit 0
fi

: >"$work/api.log"
"$work/bin/loopscoped" -tail "trace=$work/ref.lspt" -journal "$work/api.jsonl" \
    -poll 25ms -checkpoint-interval 100ms -merge-window 2s -exit-idle 60s \
    -retain 1h -http 127.0.0.1:0 -trail-journal "$work/trails.jsonl" 2>"$work/api.log" &
apid=$!
api_cleanup() { kill "$apid" 2>/dev/null || true; wait "$apid" 2>/dev/null || true; }

# The daemon logs the bound address once the listener is up.
url=""
for _ in $(seq 1 100); do
    url="$(sed -n 's|.*serving API url=\(http://[^ ]*\).*|\1|p' "$work/api.log" | head -n1)"
    [ -n "$url" ] && break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "FAIL: daemon never announced its HTTP API" >&2
    cat "$work/api.log" >&2
    api_cleanup
    exit 1
fi

# Wait for the first finalized loop so a sealed trail exists.
fid=""
for _ in $(seq 1 300); do
    fid="$( (final_ids "$work/api.jsonl" 2>/dev/null || true) | head -n1)"
    [ -n "$fid" ] && break
    sleep 0.1
done
if [ -z "$fid" ]; then
    echo "FAIL: no finalized loop journaled while the API daemon ran" >&2
    api_cleanup
    exit 1
fi

# Capture bodies before grepping: under pipefail, `fetch | grep -q`
# fails spuriously when grep exits at the first match and the fetcher
# takes a SIGPIPE mid-body.
fetch "${url}api/v1/statusz" > "$work/statusz.html"
if ! grep -q "loopscoped" "$work/statusz.html"; then
    echo "FAIL: /api/v1/statusz did not return the status page" >&2
    api_cleanup
    exit 1
fi
fetch "${url}api/v1/trace/$fid" > "$work/trail.json"
if ! grep -q "\"id\": \"$fid\"" "$work/trail.json"; then
    echo "FAIL: /api/v1/trace/$fid did not return the sealed trail" >&2
    fetch "${url}api/v1/trace" >&2 || true
    api_cleanup
    exit 1
fi
echo "== /api/v1 run: typed client, stats, pagination, pre-v1 aliases gone"
# The typed client (via lsq) round-trips the versioned surface.
"$work/bin/lsq" -addr "$url" health > "$work/v1-health.json"
if ! grep -q '"status": "ok"' "$work/v1-health.json"; then
    echo "FAIL: lsq health did not report status ok" >&2
    cat "$work/v1-health.json" >&2
    api_cleanup
    exit 1
fi
"$work/bin/lsq" -addr "$url" stats > "$work/v1-stats.json"
stat_loops="$(sed -n 's/.*"loops": \([0-9]*\),*/\1/p' "$work/v1-stats.json" | head -n1)"
if [ -z "$stat_loops" ] || [ "$stat_loops" -lt 1 ]; then
    echo "FAIL: /api/v1/stats reported no analytics loops" >&2
    cat "$work/v1-stats.json" >&2
    api_cleanup
    exit 1
fi
if ! grep -q '"p50"' "$work/v1-stats.json"; then
    echo "FAIL: /api/v1/stats carries no quantiles" >&2
    cat "$work/v1-stats.json" >&2
    api_cleanup
    exit 1
fi
# Pagination: a cursor walk at page size 1 must visit exactly the
# events one max-size page returns.
one_page="$("$work/bin/lsq" -addr "$url" loops -limit 1000 | grep -c '"id"')" || one_page=0
walked="$("$work/bin/lsq" -addr "$url" loops -limit 1 -walk | grep -c '"id"')" || walked=0
if [ "$one_page" -lt 1 ] || [ "$one_page" != "$walked" ]; then
    echo "FAIL: cursor walk visited $walked events, single page holds $one_page" >&2
    api_cleanup
    exit 1
fi
# The pre-v1 aliases were removed: each must answer 404, not linger.
if command -v curl >/dev/null 2>&1; then
    for legacy in healthz api/loops api/sources api/trace/ statusz; do
        code="$(curl -s -o /dev/null -w '%{http_code}' "${url}${legacy}")"
        if [ "$code" != 404 ]; then
            echo "FAIL: removed alias /$legacy answered $code, want 404" >&2
            api_cleanup
            exit 1
        fi
    done
    dep_note="all 5 pre-v1 aliases answer 404"
else
    dep_note="alias 404 check skipped (no curl)"
fi
echo "OK: /api/v1 round-trip via lsq ($stat_loops analytics loops, $walked events paginated, $dep_note)"

kill "$apid"
wait "$apid" 2>/dev/null || true
if ! grep -q "$fid" "$work/trails.jsonl"; then
    echo "FAIL: trail journal is missing loop $fid" >&2
    exit 1
fi
echo "OK: /api/v1/statusz served, trail $fid round-tripped via /api/v1/trace and the trail journal"
