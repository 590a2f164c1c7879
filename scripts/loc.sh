#!/usr/bin/env bash
# Non-test Go lines per package (wc -l over *.go minus *_test.go),
# excluding the benchmark harness under bench/, with a total. This is
# the number simplicity changes quote, so that "N lines fewer" can be
# reproduced from any checkout.
#
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

git ls-files '*.go' | grep -v -e '_test\.go$' -e '^bench/' \
  | xargs wc -l | grep -v ' total$' \
  | awk '{ n = split($2, p, "/"); dir = n > 1 ? substr($2, 1, length($2) - length(p[n]) - 1) : "."
           lines[dir] += $1; total += $1 }
         END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
               close("sort -k2"); printf "%7d  total\n", total }'
