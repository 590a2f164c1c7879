#!/usr/bin/env bash
# One-pass lint: cmd/loopdetect reads a trace once, record by record,
# through scan, and keeps none of it. What holding the trace again would
# need is therefore banned from the command's non-test code:
#
#   - []trace.Record (a slice of records is a materialised trace);
#   - trace.ReadAll (the call that makes one);
#   - BatchObserver (the engine entry point that takes one).
#
# Usage: scripts/lint_onepass.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}/cmd/loopdetect"

files="$(ls ./*.go | grep -v '_test\.go$')"
hits="$(grep -nE '\[\]trace\.Record|trace\.ReadAll|BatchObserver' $files || true)"
if [ -n "$hits" ]; then
  echo "$hits" | sed 's/^/lint_onepass: /'
  echo "lint_onepass: loopdetect holds no records; feed them to scan's loop as they are read" >&2
  exit 1
fi
echo "lint_onepass: OK"
