package core

import "loopscope/internal/obs/flight"

// The memory governor (Config.MaxActiveStreams > 0). It works off the
// detector's activity list, so what it sheds is a pure function of the
// record sequence and a governed detector replays deterministically.

// admitStream decides whether a new first observation may be
// remembered. Below the cap (or with no cap) it always may. At the cap
// (liveBuilders) it first tries to evict a low-value victim — scanning
// a bounded number of the coldest table entries and builders for one
// that has not reached MemberReplicas, i.e. state that cannot yet be
// evidence of anything. Failing that, admission degrades to sampling:
// most newcomers are refused (counted in shedPackets), but every 16th
// refusal force-evicts the coldest instead, so sustained pressure slows
// stream formation rather than freezing out all new traffic.
func (d *Detector) admitStream() bool {
	if d.cfg.MaxActiveStreams <= 0 || d.liveBuilders() < d.cfg.MaxActiveStreams {
		return true
	}
	const victimScan = 8
	e, b := d.coldest(d.live.head)
	for i := 0; (e != nil || b != nil) && i < victimScan; i++ {
		if e != nil || len(b.replicas) < d.cfg.MemberReplicas {
			return d.shed(e, b)
		}
		e, b = d.coldest(b.next)
	}
	d.admitRefused++
	if d.admitRefused%16 == 0 && d.shed(d.coldest(d.live.head)) {
		return true
	}
	d.shedAt = d.n
	d.shedPackets++
	return false
}

// shed drops e or force-closes b at the cap, if either is given.
// Closing goes through the normal flush, so a builder past MinReplicas
// still becomes a loop candidate, merely cut short.
func (d *Detector) shed(e *firstObs, b *builder) bool {
	switch {
	case e != nil:
		d.dropFirst(e)
	case b != nil:
		d.close(b, flight.ReasonShed)
	default:
		return false
	}
	d.shedAt = d.n
	d.shedStreams++
	return true
}

// ShedCounts is the governor's running account of what overload
// protection gave up.
type ShedCounts struct {
	// Streams is the number of unpromoted first observations dropped
	// and builders force-closed at the cap.
	Streams int64
	// Packets is the number of packets refused admission at the cap
	// (sampled admission).
	Packets int64
}

// shedCounts returns the current shed counters (zero without a cap).
func (d *Detector) shedCounts() ShedCounts {
	return ShedCounts{Streams: d.shedStreams, Packets: d.shedPackets}
}

// liveBuilders returns the per-packet state the governor caps: the
// first observations the table holds unpromoted plus the builders of
// packets seen more than once. Either kind is one packet that may still
// turn out to loop.
func (d *Detector) liveBuilders() int { return d.first.live + d.builders }
