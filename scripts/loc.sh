#!/usr/bin/env bash
# Non-test Go lines per package (*.go minus *_test.go), excluding the
# benchmark harness under bench/ and every testdata directory (test
# inputs the go tool never builds), with a total. The first column counts
# every line (wc -l); the second counts code only, leaving out blank
# lines and // comment lines, so that deleting comments cannot pass for
# simplification. These are the numbers simplicity changes quote, so
# that "N lines fewer" can be reproduced from any checkout.
#
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# shellcheck disable=SC2046 # file names carry no spaces
awk 'FNR == 1 { n = split(FILENAME, p, "/")
                dir = n > 1 ? substr(FILENAME, 1, length(FILENAME) - length(p[n]) - 1) : "." }
     { lines[dir]++; total++ }
     !/^[ \t]*(\/\/.*)?$/ { code[dir]++; ctotal++ }
     END { for (d in lines) printf "%7d %7d  %s\n", lines[d], code[d], d | "sort -k3"
           close("sort -k3"); printf "%7d %7d  total\n", total, ctotal }' \
  $(git ls-files '*.go' | grep -vE -e '_test\.go$' -e '^bench/' -e '(^|/)testdata/')
