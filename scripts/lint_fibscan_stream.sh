#!/usr/bin/env bash
# Streaming lint: cmd/fibscan reads a snapshot file one snapshot at a
# time, hands each to one Timeline, and keeps only the reports. What
# holding the timeline again would need is therefore banned from the
# command's non-test code:
#
#   - fibscan.ReadFile, fibscan.Decode (the calls that collect a file);
#   - ScanTimeline( (the entry point that takes a collected one);
#   - []fibscan.Snapshot (a slice of snapshots is a held timeline).
#
# And internal/fibscan decides reuse by comparing tables, never by
# trusting revision stamps: revisionKey must not come back.
#
# Usage: scripts/lint_fibscan_stream.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

nontest() { ls "$1"/*.go | grep -v '_test\.go$'; }
hits="$(grep -nHE 'fibscan\.ReadFile|fibscan\.Decode|ScanTimeline\(|\[\]fibscan\.Snapshot' $(nontest cmd/fibscan) || true)"
keyed="$(grep -nH 'revisionKey' $(nontest internal/fibscan) || true)"
if [ -n "$hits$keyed" ]; then
  printf '%s\n' "$hits" "$keyed" | sed '/^$/d; s/^/lint_fibscan_stream: /'
  echo "lint_fibscan_stream: fibscan holds one snapshot; feed Reader.Each to Timeline.Step, and let equal tables, not revisions, license reuse" >&2
  exit 1
fi
echo "lint_fibscan_stream: OK"
