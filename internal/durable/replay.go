package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
)

// MaxLine bounds one record during Replay. Events and observations are
// a few KB; a megabyte leaves orders of magnitude of headroom while
// keeping a garbage file from being read into memory whole.
const MaxLine = 1 << 20

// Replay streams the lines of the file at path through fn, in order,
// and returns how many it skipped. One corrupt record costs that
// record, never the file: a line fn rejects and a line longer than
// MaxLine (passed over to its newline, never buffered) are counted and
// skipped; blank lines are ignored. An unterminated final line — only
// possible in a file no OpenLog repaired, such as a rotated segment —
// is offered to fn like any other. fn's slice is valid during the call.
//
// A missing file is an empty log. A non-nil error is a real I/O
// failure; the lines before it were still delivered.
func Replay(path string, fn func(line []byte) error) (skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var line []byte // the current line so far; it may span reader buffers
	over := false   // the current line already exceeded MaxLine
	for {
		chunk, rerr := r.ReadSlice('\n')
		if over = over || len(line)+len(chunk) > MaxLine; !over {
			line = append(line, chunk...)
		}
		if rerr == bufio.ErrBufferFull {
			continue
		}
		if rec := bytes.TrimSpace(line); over || (len(rec) > 0 && fn(rec) != nil) {
			skipped++
		}
		line, over = line[:0], false
		if rerr == io.EOF {
			return skipped, nil
		} else if rerr != nil {
			return skipped, rerr
		}
	}
}
