// Package trace is not built: it is the input that proves the window
// rule fires. window.go was renamed buffer.go and the window grew mode
// fields; the tail reader checks its file per record, and
// tailSource.Read, the rule's other anchor, is missing.
package trace

type window struct {
	exact    bool
	strict   bool
	buf      []byte
	pos, end int
}
