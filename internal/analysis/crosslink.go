package analysis

import (
	"fmt"
	"strings"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/stats"
)

// Cross-link correlation: the paper's traces were collected on several
// links of the same backbone in parallel. When two monitored links sit
// on one forwarding path, a loop whose cycle spans both produces
// replica streams in both traces for the same original packets; the
// TTL offset between the paired observations is the hop distance
// between the vantage points. Matching the two traces therefore both
// corroborates each detection and localises the loop relative to the
// taps — for free, from data the operator already has.

// StreamPair is one packet's replica streams seen from two links.
type StreamPair struct {
	A, B *core.ReplicaStream
	// TTLOffset is A's first-replica TTL minus B's at the matching
	// revolution: the router hops from tap A to tap B.
	TTLOffset int
}

// CrossLinkReport summarises the correlation of two traces.
type CrossLinkReport struct {
	// Pairs are the matched streams.
	Pairs []StreamPair
	// OnlyA / OnlyB count streams seen at one link only.
	OnlyA, OnlyB int
	// LoopsBoth counts loops (prefix + overlapping window) present in
	// both traces.
	LoopsBoth, LoopsOnlyA, LoopsOnlyB int
	// HopDistance is the modal TTL offset across pairs — the inferred
	// distance between the taps.
	HopDistance int
}

// streamKey identifies the original packet behind a replica stream.
type streamKey struct {
	src, dst packet.Addr
	id       uint16
	proto    uint8
}

func keyOf(s *core.ReplicaStream) streamKey {
	return streamKey{
		src:   s.Summary.Src,
		dst:   s.Summary.Dst,
		id:    s.Summary.ID,
		proto: s.Summary.Protocol,
	}
}

// MatchCrossLink pairs the replica streams and loops of two traces
// captured on links A (upstream) and B (downstream).
func MatchCrossLink(a, b *core.Result) *CrossLinkReport {
	rep := &CrossLinkReport{}
	byKey := make(map[streamKey]*core.ReplicaStream, len(b.Streams))
	for _, s := range b.Streams {
		byKey[keyOf(s)] = s
	}
	matchedB := make(map[*core.ReplicaStream]bool)
	var offsets stats.IntHist
	for _, sa := range a.Streams {
		sb, ok := byKey[keyOf(sa)]
		if !ok {
			rep.OnlyA++
			continue
		}
		matchedB[sb] = true
		off := int(sa.Replicas[0].TTL) - int(sb.Replicas[0].TTL)
		// The downstream tap may have missed the first revolution;
		// normalise into [0, delta).
		if d := sa.TTLDelta(); d > 0 {
			for off < 0 {
				off += d
			}
			off %= d
		}
		offsets.Add(off)
		rep.Pairs = append(rep.Pairs, StreamPair{A: sa, B: sb, TTLOffset: off})
	}
	for _, sb := range b.Streams {
		if !matchedB[sb] {
			rep.OnlyB++
		}
	}
	if offsets.N > 0 {
		rep.HopDistance = offsets.Mode()
	}

	// Loop-level matching: same prefix, overlapping (slightly padded)
	// windows.
	matchedLoopB := make(map[*core.Loop]bool)
	const pad = time.Second
	for _, la := range a.Loops {
		found := false
		for _, lb := range b.Loops {
			if la.Prefix == lb.Prefix && la.Start <= lb.End+pad && lb.Start <= la.End+pad {
				found = true
				matchedLoopB[lb] = true
			}
		}
		if found {
			rep.LoopsBoth++
		} else {
			rep.LoopsOnlyA++
		}
	}
	for _, lb := range b.Loops {
		if !matchedLoopB[lb] {
			rep.LoopsOnlyB++
		}
	}
	return rep
}

// RenderCrossLink prints the correlation summary.
func RenderCrossLink(rep *CrossLinkReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-link correlation:\n")
	fmt.Fprintf(&b, "  streams seen at both taps: %d (only upstream %d, only downstream %d)\n",
		len(rep.Pairs), rep.OnlyA, rep.OnlyB)
	fmt.Fprintf(&b, "  loops seen at both taps:   %d (only upstream %d, only downstream %d)\n",
		rep.LoopsBoth, rep.LoopsOnlyA, rep.LoopsOnlyB)
	if len(rep.Pairs) > 0 {
		fmt.Fprintf(&b, "  inferred tap separation:   %d router hop(s) (modal TTL offset)\n", rep.HopDistance)
	}
	return b.String()
}
