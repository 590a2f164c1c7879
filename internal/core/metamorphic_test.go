package core

import (
	"bytes"
	"encoding/binary"
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

// relabel moves an address to another /24 by a prefix-preserving
// bijection, Crypto-PAn's construction over a fixed hash: each of bits
// 8–23 flips by a hash of the bits before it, so two addresses share as
// long a prefix after as before. The first octet is kept, so a
// multicast destination stays one, and so is the host byte.
func relabel(a packet.Addr) packet.Addr {
	v := binary.BigEndian.Uint32(a[:])
	out := v
	for i := 8; i < 24; i++ {
		if (uint64(v>>(32-i))<<5|uint64(i))*0x9e3779b97f4a7c15>>63 == 1 {
			out ^= 1 << (31 - i)
		}
	}
	var b packet.Addr
	binary.BigEndian.PutUint32(b[:], out)
	return b
}

// relabelRecord is a copy of an IPv4 snapshot with both addresses
// relabelled, the header checksum recomputed and a TCP or UDP checksum
// updated for the pseudo-header's new addresses (RFC 1624).
func relabelRecord(data []byte) []byte {
	d := bytes.Clone(data)
	ihl := int(d[0]&0x0f) * 4
	old := [8]byte(d[12:20])
	for _, at := range []int{12, 16} {
		a := relabel(packet.Addr(d[at : at+4]))
		copy(d[at:], a[:])
	}
	d[10], d[11] = 0, 0
	binary.BigEndian.PutUint16(d[10:], packet.Checksum(d[:ihl], 0))
	var at int // the transport checksum's offset
	switch d[9] {
	case packet.ProtoTCP:
		at = ihl + 16
	case packet.ProtoUDP:
		at = ihl + 6
	}
	if at == 0 || len(d) < at+2 || d[9] == packet.ProtoUDP && d[at] == 0 && d[at+1] == 0 {
		return d // no transport checksum in the snapshot, or UDP without one
	}
	sum := uint32(^binary.BigEndian.Uint16(d[at:]))
	for i := 0; i < 8; i += 2 {
		sum += uint32(^binary.BigEndian.Uint16(old[i:])) + uint32(binary.BigEndian.Uint16(d[12+i:]))
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	if ck := ^uint16(sum); ck != 0 || d[9] == packet.ProtoTCP {
		binary.BigEndian.PutUint16(d[at:], ck)
	} else {
		binary.BigEndian.PutUint16(d[at:], 0xffff) // UDP sends a zero sum as all ones
	}
	return d
}

// TestLoopsFollowARelabelling: relabelling every address by a
// prefix-preserving bijection of /24s, checksums recomputed, relabels
// the loops — prefixes, the first packet's addresses and the packet
// identities that hash them — and changes nothing else.
func TestLoopsFollowARelabelling(t *testing.T) {
	cfg := DefaultConfig()
	relabelled := 0 // loops whose prefix the bijection moved
	for seed := uint64(1); seed <= metamorphicSeeds(); seed++ {
		recs := metamorphicTrace(seed)
		moved := slices.Clone(recs)
		for i := range moved {
			moved[i].Data = relabelRecord(moved[i].Data)
		}
		want := DetectRecords(recs, cfg)
		for _, l := range want.Loops {
			if a := relabel(l.Prefix.Addr); a != l.Prefix.Addr {
				l.Prefix.Addr = a
				relabelled++
			}
		}
		for _, s := range want.Streams {
			s.Prefix.Addr = relabel(s.Prefix.Addr)
			s.Summary.Src, s.Summary.Dst = relabel(s.Summary.Src), relabel(s.Summary.Dst)
			s.Ident = fnv64a(maskReplica(moved[s.Replicas[0].Index].Data))
		}
		sort.SliceStable(want.Loops, func(i, j int) bool { return loopLess(want.Loops[i], want.Loops[j]) })
		if got := DetectRecords(moved, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: relabelled loops\n%q\nwant\n%q", seed, loopSet(got.Loops, 0), loopSet(want.Loops, 0))
		}
	}
	if relabelled == 0 {
		t.Fatal("the relabelling moved no loop")
	}
	t.Logf("%d loops relabelled", relabelled)
}
