#!/usr/bin/env bash
# Persistence-discipline lint: every file the system persists goes
# through internal/durable (append-only Log with torn-tail repair,
# Replay with one bad-line policy, atomic Save/Load with quarantine).
# The primitives a hand-written seventh path would need — temp files,
# O_APPEND opens, the .corrupt/.quarantine sidecar names — are
# therefore banned everywhere else, except the benchmark harness
# (bench/) and tests, which build damaged files on purpose.
#
# Usage: scripts/lint_persistence.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

pattern='os\.CreateTemp|O_APPEND|"\.corrupt"|"\.quarantine"'
hits="$(grep -RnE "$pattern" --include='*.go' . \
  | grep -v -e '_test\.go:' -e '^\./bench/' -e '^\./internal/durable/' || true)"
if [ -n "$hits" ]; then
  echo "$hits" | sed 's/^/lint_persistence: /'
  echo "lint_persistence: persist files through internal/durable (OpenLog/Replay/Save/Load), not by hand" >&2
  exit 1
fi
echo "lint_persistence: OK"
