#!/usr/bin/env bash
# Framing-discipline lint: internal/trace decodes each on-disk format
# in exactly one place, codec.go, and buffers input in exactly one
# place, window.go; the strict, salvage and tail readers are policies
# over those two. What a fourth hand-written decoder would need is
# therefore banned from the package's non-test code:
#
#   - byte-order decode calls (.Uint16( / .Uint32( / .Uint64(, whether
#     on binary.BigEndian, binary.LittleEndian or a ByteOrder value)
#     anywhere but codec.go;
#   - the format magics and ERF framing constants anywhere but codec.go
#     and the three writer files, which must emit them;
#   - bufio.NewReader anywhere at all.
#
# "One window, no modes" is checked the same way: the window struct has
# no per-reader switch (a field named exact, or any bool), and the tail
# reader looks at the tailed file (os.Stat, or a checkFile helper come
# back) only in tailSource.Read, that is once per refill and never per
# record.
#
# Usage: scripts/lint_trace_framing.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}/internal/trace"

files="$(ls ./*.go | grep -v '_test\.go$')"
fail=0
report() { # name, hits
  if [ -n "$2" ]; then
    echo "$2" | sed "s/^/lint_trace_framing: $1: /"
    fail=1
  fi
}
report "decode outside codec.go" \
  "$(grep -nE '\.Uint(16|32|64)\(' $files | grep -v '^\./codec\.go:' || true)"
report "format constant outside codec.go and the writers" \
  "$(grep -nwE 'nativeMagic|pcapMagicMicros|pcapMagicNanos|erfTypeHDLCPOS|hdlcHeaderLen' $files \
     | grep -v -e '^\./codec\.go:' -e '^\./native\.go:' -e '^\./pcap\.go:' -e '^\./erf\.go:' || true)"
report "second read buffer" "$(grep -nE 'bufio\.NewReader' $files || true)"
report "per-reader mode in window" \
  "$(awk '/^type window struct/ { on = 1 } on && /^}/ { on = 0 }
          on { code = $0; sub(/\/\/.*/, "", code)
               if (code ~ /(^|[^[:alnum:]_])(exact|bool)([^[:alnum:]_]|$)/) print "./window.go:" FNR ":" $0 }' window.go)"
report "file check outside the refill" \
  "$(awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
          { code = $0; sub(/\/\/.*/, "", code) }
          code ~ /checkFile\(|os\.Stat\(/ && fn !~ /^func \(s tailSource\) Read\(/ { print FILENAME ":" FNR ":" $0 }' $files)"
if [ "$fail" -ne 0 ]; then
  echo "lint_trace_framing: decode in codec.go, buffer in window.go (no modes), check a tailed file per refill; readers are policies over these" >&2
  exit 1
fi
echo "lint_trace_framing: OK"
