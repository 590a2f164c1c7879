// Package indicator implements the lightweight online loop signal the
// paper suggests in §V-B: "Presence of such streams of ICMP traffic
// might provide a strong indication that a loop is in progress."
//
// When a loop black-holes a prefix, users ping and traceroute the dead
// destinations and routers emit time-exceeded errors, so the ICMP
// packet rate towards the affected /24 surges far above its baseline.
// The indicator watches only ICMP packets — a tiny fraction of the
// link — and raises an alarm when a prefix's windowed ICMP count
// exceeds both an absolute floor and a multiple of its trailing
// baseline. It is cheap enough for inline deployment and needs no
// per-packet state, trading the detector's exactness for immediacy;
// Evaluate quantifies that trade against detector output.
package indicator

import (
	"sort"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/scenario"
	"loopscope/internal/trace"
)

// Config tunes the indicator.
type Config struct {
	// Window is the surge-detection window.
	Window time.Duration
	// Baseline is the trailing period the surge is compared against.
	Baseline time.Duration
	// MinCount is the absolute ICMP packet floor per window before an
	// alarm can fire.
	MinCount int
	// Ratio is the required surge factor over the per-window baseline
	// rate.
	Ratio float64
	// PrefixBits is the aggregation width (default 24).
	PrefixBits int
	// HoldDown extends an alarm while the surge persists; two surges
	// within HoldDown fold into one alarm.
	HoldDown time.Duration
}

// DefaultConfig returns thresholds tuned for backbone-scale traces: a
// 5-second window must carry at least 8 ICMP packets and at least 4x
// the trailing per-window rate.
func DefaultConfig() Config {
	return Config{
		Window:     5 * time.Second,
		Baseline:   60 * time.Second,
		MinCount:   8,
		Ratio:      4,
		PrefixBits: 24,
		HoldDown:   10 * time.Second,
	}
}

// Alarm is one raised loop indication.
type Alarm struct {
	Prefix     routing.Prefix
	Start, End time.Duration
	// Peak is the largest windowed ICMP count observed during the
	// alarm.
	Peak int
}

// prefixWatch is the per-prefix sliding state.
type prefixWatch struct {
	// times holds ICMP arrival times still inside the baseline
	// horizon.
	times []time.Duration
	alarm *Alarm
}

// Detector is the streaming indicator.
type Detector struct {
	cfg    Config
	watch  map[routing.Prefix]*prefixWatch
	alarms []Alarm
	now    time.Duration
	// ICMPSeen counts ICMP records processed (the indicator's entire
	// packet-inspection budget).
	ICMPSeen int
}

// New returns an indicator with the given config.
func New(cfg Config) *Detector {
	if cfg.PrefixBits == 0 {
		cfg.PrefixBits = 24
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Second
	}
	if cfg.Baseline < cfg.Window {
		cfg.Baseline = 12 * cfg.Window
	}
	return &Detector{cfg: cfg, watch: make(map[routing.Prefix]*prefixWatch)}
}

// Observe feeds one trace record. Non-ICMP records only advance the
// clock (O(1)); ICMP records update the destination prefix's window.
func (d *Detector) Observe(rec trace.Record) {
	d.now = rec.Time
	if len(rec.Data) < packet.IPv4HeaderLen || rec.Data[9] != packet.ProtoICMP {
		return
	}
	pkt, err := packet.Decode(rec.Data)
	if err != nil {
		return
	}
	d.ICMPSeen++
	pfx := routing.PrefixOf(pkt.IP.Dst, d.cfg.PrefixBits)
	w := d.watch[pfx]
	if w == nil {
		w = &prefixWatch{}
		d.watch[pfx] = w
	}
	w.times = append(w.times, rec.Time)
	d.update(pfx, w)
}

// update trims horizons and evaluates the surge condition for one
// prefix.
func (d *Detector) update(pfx routing.Prefix, w *prefixWatch) {
	// Trim beyond the baseline horizon.
	cut := d.now - d.cfg.Baseline
	i := sort.Search(len(w.times), func(i int) bool { return w.times[i] >= cut })
	if i > 0 {
		w.times = append(w.times[:0], w.times[i:]...)
	}
	// Windowed count and baseline rate.
	wi := sort.Search(len(w.times), func(i int) bool {
		return w.times[i] >= d.now-d.cfg.Window
	})
	inWindow := len(w.times) - wi
	before := wi // baseline observations preceding the window
	// The baseline span grows with the trace until it reaches the
	// configured horizon, so a popular prefix gets a fair per-window
	// rate estimate within a couple of windows instead of mass false
	// alarms at cold start.
	span := d.now
	if span > d.cfg.Baseline {
		span = d.cfg.Baseline
	}
	baselineWindows := float64(span-d.cfg.Window) / float64(d.cfg.Window)
	if baselineWindows < 1 {
		baselineWindows = 1
	}
	baselinePerWindow := float64(before) / baselineWindows

	warm := d.now >= 2*d.cfg.Window
	surging := warm && inWindow >= d.cfg.MinCount &&
		float64(inWindow) >= d.cfg.Ratio*maxf(baselinePerWindow, 1)

	switch {
	case surging && w.alarm == nil:
		w.alarm = &Alarm{Prefix: pfx, Start: w.times[wi], End: d.now, Peak: inWindow}
	case surging:
		w.alarm.End = d.now
		if inWindow > w.alarm.Peak {
			w.alarm.Peak = inWindow
		}
	case w.alarm != nil && d.now-w.alarm.End > d.cfg.HoldDown:
		d.alarms = append(d.alarms, *w.alarm)
		w.alarm = nil
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Finish closes open alarms and returns all alarms in start order.
func (d *Detector) Finish() []Alarm {
	for _, w := range d.watch {
		if w.alarm != nil {
			d.alarms = append(d.alarms, *w.alarm)
			w.alarm = nil
		}
	}
	sort.Slice(d.alarms, func(i, j int) bool { return d.alarms[i].Start < d.alarms[j].Start })
	return d.alarms
}

// Evaluation compares alarms with detector ground truth.
type Evaluation struct {
	// LoopsCovered / Loops: recall over detector loops (a loop counts
	// as covered when a same-prefix alarm overlaps its window, padded
	// by the slack).
	Loops        int
	LoopsCovered int
	// TruePositives / Alarms: precision.
	Alarms        int
	TruePositives int
	// MedianLead is how far the first matching alarm trails the
	// loop's first replica (negative = alarm earlier).
	MedianLeadMs float64
}

// Recall returns covered/loops (1 when there are no loops).
func (e Evaluation) Recall() float64 {
	if e.Loops == 0 {
		return 1
	}
	return float64(e.LoopsCovered) / float64(e.Loops)
}

// Precision returns true positives/alarms (1 when there are none).
func (e Evaluation) Precision() float64 {
	if e.Alarms == 0 {
		return 1
	}
	return float64(e.TruePositives) / float64(e.Alarms)
}

// Evaluate scores alarms against detector loops. slack pads the loop
// windows (ICMP reactions trail the loop onset by the clients' retry
// ladders — users only ping after their connections give up, 15-25 s
// later). matchBits sets the aggregation at which an alarm counts for
// a loop: 24 demands the exact /24; 16 accepts an alarm on a sibling
// /24 of the same /16, appropriate because an outage typically takes
// out a block of prefixes while the ping surge concentrates on the
// most popular of them.
func Evaluate(alarms []Alarm, loops []*core.Loop, slack time.Duration, matchBits int) Evaluation {
	ev := Evaluation{Loops: len(loops), Alarms: len(alarms)}
	matched := make([]bool, len(alarms))
	var leads []float64
	for _, l := range loops {
		covered := false
		lp := routing.NewPrefix(l.Prefix.Addr, matchBits)
		for i, a := range alarms {
			if routing.NewPrefix(a.Prefix.Addr, matchBits) != lp {
				continue
			}
			if a.Start <= l.End+slack && l.Start-slack <= a.End {
				if !covered {
					leads = append(leads, float64(a.Start-l.Start)/float64(time.Millisecond))
				}
				covered = true
				matched[i] = true
			}
		}
		if covered {
			ev.LoopsCovered++
		}
	}
	for _, m := range matched {
		if m {
			ev.TruePositives++
		}
	}
	if len(leads) > 0 {
		sort.Float64s(leads)
		ev.MedianLeadMs = leads[len(leads)/2]
	}
	return ev
}

// Scenario is the ping-heavy backbone the indicator is scored on, by
// its tests and by `paperrepro -exp indicator`: users of black-holed
// destinations ping once their connections give up.
func Scenario() scenario.Spec {
	return scenario.Spec{
		Name:             "ind-bb",
		Seed:             11,
		Duration:         2 * time.Minute,
		PacketsPerSecond: 800,
		StablePrefixes:   16,
		Pockets: []scenario.PocketSpec{
			{Delta: 2, Prefixes: 3, Failures: 2, RepairAfter: 30 * time.Second},
			{Delta: 2, Prefixes: 3, Failures: 1, RepairAfter: 30 * time.Second},
			{Delta: 3, Prefixes: 3, Failures: 1, RepairAfter: 30 * time.Second},
		},
		PingOnAbort: 0.9, // unlucky users hammer ping
	}
}
