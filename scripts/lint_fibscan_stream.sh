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
# trusting revision stamps: revisionKey must not come back. Its Reader
# frames the file itself and knows a repeated router by one byte
# comparison; json.RawMessage or a .Token( walk in its non-test code is
# encoding/json scanning every router again (once to find its end, once
# to copy it out).
#
# Usage: scripts/lint_fibscan_stream.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

nontest() { ls "$1"/*.go | grep -v '_test\.go$'; }
hits="$(grep -nHE 'fibscan\.ReadFile|fibscan\.Decode|ScanTimeline\(|\[\]fibscan\.Snapshot' $(nontest cmd/fibscan) || true)"
keyed="$(grep -nH 'revisionKey' $(nontest internal/fibscan) || true)"
scans="$(grep -nHE 'json\.RawMessage|\.Token\(' $(nontest internal/fibscan) || true)"
if [ -n "$hits$keyed$scans" ]; then
  printf '%s\n' "$hits" "$keyed" "$scans" | sed '/^$/d; s/^/lint_fibscan_stream: /'
  echo "lint_fibscan_stream: fibscan holds one snapshot; feed Reader.Each to Timeline.Step, let equal tables, not revisions, license reuse, and let equal bytes, not a second encoding/json scan, find a repeated router" >&2
  exit 1
fi
echo "lint_fibscan_stream: OK"
