package analytics

import "loopscope/internal/core"

// ObsFromLoop reduces one detected loop to its analytics observation.
// It is the single reduction both feeding paths use — the daemon's
// publish pipeline and offline `loopdetect -json` — so online and
// offline distributions are computed from identical inputs.
func ObsFromLoop(id string, l *core.Loop) LoopObs {
	o := LoopObs{
		ID:         id,
		Prefix:     l.Prefix.String(),
		DurationNs: int64(l.Duration()),
		Streams:    len(l.Streams),
		Replicas:   l.Replicas(),
	}
	if len(l.Streams) > 0 {
		o.TTLDelta = l.Streams[0].TTLDelta()
	}
	// The loop delay of each escaped stream (the paper's escape-delay
	// distribution, Figure 9): how long the loop held each packet that
	// plausibly left it alive. One allocation at any stream count.
	for _, s := range l.Streams {
		if !s.Escaped() {
			continue
		}
		if o.EscapeDelaysNs == nil {
			o.EscapeDelaysNs = make([]int64, 0, len(l.Streams))
		}
		o.EscapeDelaysNs = append(o.EscapeDelaysNs, int64(s.LoopDelay()))
	}
	return o
}

// RecordResult feeds every loop of one offline detection result into
// the collector under the given source name.
func (c *Collector) RecordResult(source string, res *core.Result) {
	if c == nil || res == nil {
		return
	}
	for _, l := range res.Loops {
		c.RecordLoop(source, ObsFromLoop("", l))
	}
}
