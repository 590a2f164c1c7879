#!/usr/bin/env bash
# Soak for the one-pass property: tracegen writes a capture into a FIFO
# and loopdetect -json reads it from stdin, so the trace never exists on
# disk or anywhere else, and the only memory that could grow with it is
# loopdetect's own. Both processes' RSS is sampled from /proc while they
# run. Passes when
#
#   - loopdetect's RSS over the second half of the run peaks less than
#     10 % above its peak over the first half (bounded, not merely small);
#   - the packet count loopdetect reports is the record count tracegen
#     wrote;
#   - tracegen itself, which streams too, stayed under 100 MiB.
#
# SOAK_RECORDS sets the background records (default 5,000,000, about
# five seconds; the scripted loops add their replicas on top) at 50,000
# packets per second of trace clock. A packet seen once is a pointer-free
# entry in generations the detector reuses, not a map entry, so its RSS
# has no warm-up ramp to outlast: on a 2-core x86-64 box it reads
# 52-54 MiB in both halves at five million records and 52-55 MiB at
# twenty million. (When every packet had a builder in a Go map, the map
# settling under churn took RSS from 82 to about 100 MiB over the first
# six million records, and this soak needed twenty million.)
# Run from the repository root: ./scripts/soak_onepass.sh
set -euo pipefail

records="${SOAK_RECORDS:-5000000}"
pps=50000

work="$(mktemp -d)"
trap 'kill "${gen:-}" "${det:-}" 2>/dev/null || true; rm -rf "$work"' EXIT

go build -o "$work/bin/" ./cmd/tracegen ./cmd/loopdetect
mkfifo "$work/trace.fifo"

echo "== tracegen | loopdetect -json - : $records records at $pps packets/s, no file on disk"
"$work/bin/tracegen" -duration "$((records / pps))s" -pps "$pps" -prefixes 4096 -loops 25 -seed 7 \
    "$work/trace.fifo" > "$work/gen.out" &
gen=$!
"$work/bin/loopdetect" -json - < "$work/trace.fifo" > "$work/out.json" &
det=$!

rss_kib() { awk '/^VmRSS:/ { print $2 }' "/proc/$1/status" 2>/dev/null || true; }
gen_peak=0
while kill -0 "$det" 2>/dev/null; do
    r="$(rss_kib "$det")"
    [ -n "$r" ] && echo "$r" >> "$work/rss"
    g="$(rss_kib "$gen")"
    [ -n "$g" ] && [ "$g" -gt "$gen_peak" ] && gen_peak="$g"
    sleep 0.1
done
wait "$gen"
wait "$det"

wrote="$(sed -n 's/^wrote \([0-9]*\) records.*/\1/p' "$work/gen.out")"
packets="$(sed -n 's/^  "packets": \([0-9]*\),$/\1/p' "$work/out.json")"
if [ -z "$wrote" ] || [ "$wrote" != "$packets" ]; then
    echo "FAIL: tracegen wrote '$wrote' records, loopdetect reports '$packets' packets" >&2
    exit 1
fi

samples="$(wc -l < "$work/rss")"
if [ "$samples" -lt 10 ]; then
    echo "FAIL: only $samples RSS samples; raise SOAK_RECORDS" >&2
    exit 1
fi
read -r first second <<<"$(awk -v n="$samples" '
    NR <= n / 2 { if ($1 > a) a = $1; next }
    { if ($1 > b) b = $1 }
    END { print a, b }' "$work/rss")"
echo "loopdetect RSS peak: first half $((first / 1024)) MiB, second half $((second / 1024)) MiB ($samples samples); tracegen peak $((gen_peak / 1024)) MiB"
if [ $((second * 10)) -ge $((first * 11)) ]; then
    echo "FAIL: loopdetect RSS rose 10 % or more over the second half of the run" >&2
    exit 1
fi
if [ "$gen_peak" -ge $((100 * 1024)) ]; then
    echo "FAIL: tracegen peaked at $((gen_peak / 1024)) MiB; it should stream" >&2
    exit 1
fi
echo "OK: $packets packets, RSS bounded"
