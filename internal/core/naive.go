package core

import (
	"bytes"
	"sort"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// naiveDetector is the reference implementation the Detector is tested
// against: the paper's algorithm written the obvious whole-trace way.
// Step 1 keeps open streams in a flat slice and compares every arriving
// record against each of them; steps 2 and 3 run once at Finish over an
// index of the entire trace (every record's time, prefix and
// membership). It is quadratic in open streams and linear in memory,
// and shares no step-1/2/3 code with the Detector — only Config,
// Result, the byte-level helpers (maskReplica, summarize) and the
// canonical order (streamLess, loopLess) — so agreement between the
// two is evidence about all three steps.
//
// It also backs the data-structure ablation benchmark, quantifying
// what the hash index buys on real trace volumes.
type naiveDetector struct {
	cfg  Config
	open []*naiveStream
	// flushed streams with >= MemberReplicas replicas, in flush order.
	flushed []*naiveStream
	// memberOf[i] is the serial of the flushed stream record i belongs
	// to, or -1; times[i] its timestamp; byPrefix its prefix's records.
	memberOf []int32
	times    []time.Duration
	byPrefix map[routing.Prefix][]int32

	lastSweep   time.Duration
	parseErrors int
	pairs       int
}

// naiveStream accumulates one replica stream during the scan.
type naiveStream struct {
	masked   []byte
	prefix   routing.Prefix
	summary  PacketSummary
	replicas []Replica
	// extras are record indices of link-layer duplicate observations
	// (same bytes, TTL decrement below MinTTLDelta): not replicas, but
	// they belong to this packet for membership purposes.
	extras   []int
	lastTTL  uint8
	lastTime time.Duration
}

// newNaiveDetector returns a naive detector with the given
// configuration.
func newNaiveDetector(cfg Config) *naiveDetector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &naiveDetector{cfg: cfg, byPrefix: make(map[routing.Prefix][]int32)}
}

// Observe processes the next trace record (records must be in
// non-decreasing time order).
func (n *naiveDetector) Observe(rec trace.Record) {
	idx := len(n.times)
	n.memberOf = append(n.memberOf, -1)
	n.times = append(n.times, rec.Time)

	pkt, err := packet.Decode(rec.Data)
	if err != nil {
		n.parseErrors++
		return
	}
	pfx := routing.PrefixOf(pkt.IP.Dst, n.cfg.PrefixBits)
	n.byPrefix[pfx] = append(n.byPrefix[pfx], int32(idx))

	masked := maskReplica(rec.Data)
	rep := Replica{Time: rec.Time, TTL: pkt.IP.TTL, Index: idx}

	var match *naiveStream
	for _, s := range n.open {
		if bytes.Equal(s.masked, masked) {
			match = s
			break
		}
	}
	fresh := func() *naiveStream {
		return &naiveStream{
			masked: masked, prefix: pfx, summary: summarize(rec.Data),
			replicas: []Replica{rep}, lastTTL: rep.TTL, lastTime: rep.Time,
		}
	}
	switch {
	case match == nil:
		n.open = append(n.open, fresh())
	case rec.Time-match.lastTime > n.cfg.MaxReplicaGap:
		// Stale stream: close it and start fresh.
		n.replace(match, fresh())
	default:
		delta := int(match.lastTTL) - int(pkt.IP.TTL)
		switch {
		case delta >= n.cfg.MinTTLDelta:
			match.replicas = append(match.replicas, rep)
			match.lastTTL, match.lastTime = rep.TTL, rep.Time
		case delta >= 0:
			match.extras = append(match.extras, idx)
			match.lastTTL, match.lastTime = rep.TTL, rep.Time
		default:
			// TTL went back up: a reappearance of the original packet.
			n.replace(match, fresh())
		}
	}

	if rec.Time-n.lastSweep > n.cfg.MaxReplicaGap {
		kept := n.open[:0]
		for _, s := range n.open {
			if rec.Time-s.lastTime > n.cfg.MaxReplicaGap {
				n.flush(s)
			} else {
				kept = append(kept, s)
			}
		}
		n.open = kept
		n.lastSweep = rec.Time
	}
}

// replace flushes old and puts fresh in its slot.
func (n *naiveDetector) replace(old, fresh *naiveStream) {
	n.flush(old)
	for i, s := range n.open {
		if s == old {
			n.open[i] = fresh
			return
		}
	}
}

// flush retires a stream: single observations vanish, pairs are
// counted as link-layer duplicates, larger sets become membership-
// bearing candidate streams.
func (n *naiveDetector) flush(s *naiveStream) {
	if len(s.replicas) < n.cfg.MemberReplicas {
		return
	}
	if len(s.replicas) == 2 {
		n.pairs++
	}
	serial := int32(len(n.flushed))
	for _, r := range s.replicas {
		n.memberOf[r.Index] = serial
	}
	for _, idx := range s.extras {
		n.memberOf[idx] = serial
	}
	n.flushed = append(n.flushed, s)
}

// Finish closes all open streams, runs validation and merging over the
// whole trace, and returns the result.
func (n *naiveDetector) Finish() *Result {
	for _, s := range n.open {
		n.flush(s)
	}
	n.open = nil

	res := &Result{
		TotalPackets:   len(n.times),
		ParseErrors:    n.parseErrors,
		PairsDiscarded: n.pairs,
	}

	// Step 2: validation.
	for _, s := range n.flushed {
		if len(s.replicas) < n.cfg.MinReplicas {
			continue
		}
		st := &ReplicaStream{Prefix: s.prefix, Replicas: s.replicas, Summary: s.summary, Ident: fnv64a(s.masked)}
		if n.cfg.ValidateSubnet && !n.subnetClean(s.prefix, st.Start(), st.End()) {
			res.SubnetInvalidated++
			continue
		}
		res.Streams = append(res.Streams, st)
	}
	sort.Slice(res.Streams, func(i, j int) bool { return streamLess(res.Streams[i], res.Streams[j]) })
	for id, st := range res.Streams {
		st.ID = id
		res.LoopedPackets += len(st.Replicas)
	}

	// Step 3: merging.
	res.Loops = n.merge(res.Streams)
	return res
}

// subnetClean reports whether every packet towards pfx in [from, to]
// belongs to some replica stream (of at least MemberReplicas
// replicas).
func (n *naiveDetector) subnetClean(pfx routing.Prefix, from, to time.Duration) bool {
	for _, i := range n.byPrefix[pfx] {
		if t := n.times[i]; t >= from && t <= to && n.memberOf[i] < 0 {
			return false
		}
	}
	return true
}

// merge folds validated streams (in canonical order) into loops: same
// prefix and overlapping, or separated by less than MergeWindow with no
// non-looped same-subnet packet in the gap.
func (n *naiveDetector) merge(streams []*ReplicaStream) []*Loop {
	var loops []*Loop
	cur := make(map[routing.Prefix]*Loop)
	for _, s := range streams {
		l := cur[s.Prefix]
		switch {
		case l == nil:
		case s.Start() <= l.End:
			// Overlap: same loop.
		case s.Start()-l.End < n.cfg.MergeWindow &&
			(!n.cfg.ValidateSubnet || n.subnetClean(s.Prefix, l.End, s.Start())):
			// Close in time with no contradicting traffic in the gap.
		default:
			l = nil
		}
		if l == nil {
			l = &Loop{Prefix: s.Prefix, Start: s.Start(), End: s.End()}
			cur[s.Prefix] = l
			loops = append(loops, l)
		}
		l.Streams = append(l.Streams, s)
		if s.End() > l.End {
			l.End = s.End()
		}
	}
	sort.SliceStable(loops, func(i, j int) bool { return loopLess(loops[i], loops[j]) })
	return loops
}

// NaiveDetectRecords runs the naive pipeline over an in-memory trace.
func NaiveDetectRecords(recs []trace.Record, cfg Config) *Result {
	d := newNaiveDetector(cfg)
	for _, r := range recs {
		d.Observe(r)
	}
	return d.Finish()
}
