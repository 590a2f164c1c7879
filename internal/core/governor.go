package core

import "loopscope/internal/obs/flight"

// The memory governor (Config.MaxActiveStreams > 0). It works off the
// detector's activity list, so what it sheds is a pure function of the
// record sequence and a governed detector replays deterministically.

// admitStream decides whether a new builder may start. Below the cap
// (or with no cap) it always may. At the cap it first tries to evict
// a low-value victim — scanning a bounded number of the coldest
// builders for one that has not reached MemberReplicas, i.e. state
// that cannot yet be evidence of anything. Failing that, admission
// degrades to sampling: most newcomers are refused (counted in
// shedPackets), but every 16th refusal force-evicts the coldest
// builder instead, so sustained pressure slows stream formation
// rather than freezing out all new traffic.
func (d *Detector) admitStream() bool {
	if d.cfg.MaxActiveStreams <= 0 || d.liveBuilders < d.cfg.MaxActiveStreams {
		return true
	}
	const victimScan = 8
	b := d.live.head
	for i := 0; b != nil && i < victimScan; i++ {
		if len(b.replicas) < d.cfg.MemberReplicas {
			d.evictStream(b)
			return true
		}
		b = b.links[byActivity].next
	}
	d.admitRefused++
	if d.admitRefused%16 == 0 && d.live.head != nil {
		d.evictStream(d.live.head)
		return true
	}
	d.shedPackets++
	return false
}

// evictStream force-closes a builder at the cap. Closing goes through
// the normal flush, so replicas already collected keep their
// evidentiary value: a builder past MinReplicas still becomes a loop
// candidate, merely cut short.
func (d *Detector) evictStream(b *builder) {
	d.shedStreams++
	d.close(b, flight.ReasonShed)
}

// ShedCounts is the governor's running account of what overload
// protection gave up.
type ShedCounts struct {
	// Streams is the number of live builders force-closed at the cap.
	Streams int64
	// Packets is the number of packets refused a new builder at the
	// cap (sampled admission).
	Packets int64
}

// Shed returns the current shed counters (zero without a cap).
func (d *Detector) Shed() ShedCounts {
	return ShedCounts{Streams: d.shedStreams, Packets: d.shedPackets}
}

// LiveBuilders returns the number of live stream builders — the state
// the governor caps.
func (d *Detector) LiveBuilders() int { return d.liveBuilders }
