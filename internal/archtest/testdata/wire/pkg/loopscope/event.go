// Package loopscope is not built: with the rest of this tree it is the
// input that proves the wire rule fires. Event carries the real
// loopscope.Event's JSON names.
package loopscope

type Event struct {
	ID          string `json:"id"`
	Source      string `json:"source"`
	Vantage     string `json:"vantage,omitempty"`
	Link        string `json:"link,omitempty"`
	Prefix      string `json:"prefix"`
	Seq         int    `json:"seq"`
	StartNs     int64  `json:"startNs"`
	EndNs       int64  `json:"endNs"`
	DurationNs  int64  `json:"durationNs"`
	Streams     int    `json:"streams"`
	Replicas    int    `json:"replicas"`
	TTLDelta    int    `json:"ttlDelta"`
	Escaped     int    `json:"escaped,omitempty"`
	Truncated   bool   `json:"truncated,omitempty"`
	EmittedAtNs int64  `json:"emittedAtNs"`
	Prov        any    `json:"prov,omitempty"`
}
