package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// Metamorphic properties of the detector: relations between the loops
// of two related traces that hold whatever the loops are. Each runs
// with the governor off, its shedding being global by design, over
// metamorphicSeeds random traces: 200, or 40 under the race detector.
func metamorphicSeeds() uint64 {
	if raceEnabled {
		return 40
	}
	return 200
}

// metamorphicTrace is a short random trace with two loops towards
// dests, or towards randomTrace's five /24s.
func metamorphicTrace(seed uint64, dests ...routing.Prefix) []trace.Record {
	if dests == nil {
		return randomTrace(seed, 3*time.Second, 50, 2)
	}
	return randomTraceOver(seed, 3*time.Second, 50, 2, dests)
}

// loopSet renders loops independently of record positions: prefix,
// extent and every stream's replicas as (time, TTL), shifted by shift.
func loopSet(loops []*Loop, shift time.Duration) []string {
	var out []string
	for _, l := range loops {
		var key strings.Builder
		fmt.Fprintf(&key, "%v %v..%v", l.Prefix, l.Start+shift, l.End+shift)
		for _, s := range l.Streams {
			fmt.Fprintf(&key, " [%x", s.Ident)
			for _, r := range s.Replicas {
				fmt.Fprintf(&key, " %d/%d", r.Time+shift, r.TTL)
			}
			key.WriteString("]")
		}
		out = append(out, key.String())
	}
	sort.Strings(out)
	return out
}

// prefixOf is the /24 a record is addressed to.
func prefixOf(t *testing.T, r trace.Record) routing.Prefix {
	ip, err := packet.DecodeIPv4(r.Data)
	if err != nil {
		t.Fatalf("undecodable record: %v", err)
	}
	return routing.PrefixOf(ip.Dst, 24)
}

// TestLoopsArePerPrefix: the loops towards one /24 do not change when
// every record towards the other /24s is removed.
func TestLoopsArePerPrefix(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= metamorphicSeeds(); seed++ {
		recs := metamorphicTrace(seed)
		byPrefix := map[routing.Prefix][]trace.Record{}
		for _, r := range recs {
			p := prefixOf(t, r)
			byPrefix[p] = append(byPrefix[p], r)
		}
		all := DetectRecords(recs, cfg).Loops
		for p, sub := range byPrefix {
			var want []*Loop
			for _, l := range all {
				if l.Prefix == p {
					want = append(want, l)
				}
			}
			if got := loopSet(DetectRecords(sub, cfg).Loops, 0); !reflect.DeepEqual(got, loopSet(want, 0)) {
				t.Fatalf("seed %d, %v alone: loops\n%q\nin the whole trace\n%q", seed, p, got, loopSet(want, 0))
			}
		}
	}
}

// TestLoopsShiftWithTheClock: shifting every timestamp by 37 h shifts
// every loop by 37 h and changes nothing else.
func TestLoopsShiftWithTheClock(t *testing.T) {
	const shift = 37 * time.Hour
	cfg := DefaultConfig()
	for seed := uint64(1); seed <= metamorphicSeeds(); seed++ {
		recs := metamorphicTrace(seed)
		want := DetectRecords(recs, cfg)
		moved := slices.Clone(recs)
		for i := range moved {
			moved[i].Time += shift
		}
		got := DetectRecords(moved, cfg)
		if !reflect.DeepEqual(loopSet(got.Loops, 0), loopSet(want.Loops, shift)) {
			t.Fatalf("seed %d: shifted loops\n%q\nwant\n%q", seed, loopSet(got.Loops, 0), loopSet(want.Loops, shift))
		}
		got.Loops, got.Streams, want.Loops, want.Streams = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: shifted counters %+v, want %+v", seed, got, want)
		}
	}
}

// TestLoopsOfDisjointTracesUnite: two traces towards disjoint /24s,
// merged by time, hold exactly the loops of the two.
func TestLoopsOfDisjointTracesUnite(t *testing.T) {
	cfg := DefaultConfig()
	left := []routing.Prefix{routing.MustParsePrefix("198.51.100.0/24"), routing.MustParsePrefix("203.0.113.0/24")}
	right := []routing.Prefix{routing.MustParsePrefix("192.0.2.0/24"), routing.MustParsePrefix("198.51.101.0/24")}
	for seed := uint64(1); seed <= metamorphicSeeds(); seed++ {
		a, b := metamorphicTrace(seed, left...), metamorphicTrace(seed+1<<32, right...)
		merged := append(slices.Clone(a), b...)
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].Time < merged[j].Time })
		want := loopSet(append(DetectRecords(a, cfg).Loops, DetectRecords(b, cfg).Loops...), 0)
		sort.Strings(want)
		if got := loopSet(DetectRecords(merged, cfg).Loops, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged loops\n%q\nwant\n%q", seed, got, want)
		}
	}
}
