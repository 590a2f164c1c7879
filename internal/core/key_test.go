package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"loopscope/internal/obs/flight"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// capture serialises pkt into a snapshot of up to snap bytes, as rec
// does for 40.
func capture(t testing.TB, pkt packet.Packet, snap int) []byte {
	t.Helper()
	buf := make([]byte, snap)
	n, err := pkt.Serialize(buf, snap)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf[:n]
}

// FuzzReplicaKey: the key is the byte definition. For any two captures
// that decode as IPv4, equal keys and equal bytes past keyBytes hold
// exactly when maskReplica's copies are equal, and the masked bytes
// rebuilt from a key are maskReplica's.
func FuzzReplicaKey(f *testing.F) {
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 7, 64, 99)
	pkt.PayloadLen = 200
	base := capture(f, pkt, 96)
	with := func(edit func(b []byte)) []byte {
		b := bytes.Clone(base)
		edit(b)
		return b
	}
	f.Add(base, with(func(b []byte) { b[8] = 12 }))                          // another TTL
	f.Add(base, with(func(b []byte) { b[8], b[10], b[11] = 3, 0xab, 0xcd })) // TTL and checksum
	f.Add(base, with(func(b []byte) { b[9] ^= 1 }))                          // the byte between them
	for _, n := range []int{20, 36, 40, 41, 64} {
		f.Add(base[:n], with(func(b []byte) { b[8]-- })[:n])
		f.Add(base[:n], with(func(b []byte) { b[n-1] ^= 0x80 })[:n]) // last captured byte
		f.Add(base[:n], base[:n+1])                                  // one byte longer
	}
	f.Add(base[:40], base[:64])                         // equal first 40, different lengths
	f.Add(base[:40], append(bytes.Clone(base[:39]), 0)) // captured zero against...
	f.Add(base[:39], append(bytes.Clone(base[:39]), 0)) // ...padding
	f.Add(base, with(func(b []byte) { b[95] ^= 1 }))    // differ only in the last byte
	f.Add(base, with(func(b []byte) { b[40] ^= 1 }))    // differ only just past the key
	pkt.IP.IHL = 6                                      // four bytes of options
	opts := capture(f, pkt, 64)
	f.Add(opts, bytes.Clone(opts))
	f.Add(opts, base[:64])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		if _, err := packet.DecodeIPv4(a); err != nil {
			return
		}
		ka, restA := keyOf(a)
		ma := maskReplica(a)
		if got := ka.masked(nil, restA); !bytes.Equal(got, ma) || len(restA) != max(len(a), keyBytes)-keyBytes {
			t.Fatalf("key of % x and %d more bytes rebuild % x, maskReplica gives % x", a, len(restA), got, ma)
		}
		if _, err := packet.DecodeIPv4(b); err != nil {
			return
		}
		kb, restB := keyOf(b)
		byKey := ka == kb && bytes.Equal(restA, restB)
		if byBytes := bytes.Equal(ma, maskReplica(b)); byKey != byBytes {
			t.Fatalf("keys say replicas: %v, masked bytes say: %v\n% x\n% x", byKey, byBytes, a, b)
		}
	})
}

// oddTrace builds a trace none of whose captures is the 40-byte,
// option-free snapshot randomTrace produces: per packet a snapshot
// length drawn from lens and, optionally, IP options; streams, pairs,
// duplicates and singles towards a few prefixes; and, where the
// snapshot is long enough, twin streams whose packets are identical up
// to byte 40 and differ in one byte after it, their replicas
// interleaved — one stream to the key alone, two by the definition.
func oddTrace(t *testing.T, seed uint64, lens []int, ihl uint8) []trace.Record {
	t.Helper()
	rng := stats.NewRNG(seed)
	var recs []trace.Record
	emit := func(at time.Duration, data []byte, ttl int) {
		d := bytes.Clone(data)
		d[8] = uint8(ttl)
		binary.BigEndian.PutUint16(d[10:], uint16(rng.Intn(1<<16))) // replicas' IP checksums differ
		recs = append(recs, trace.Record{Time: at, WireLen: 400, Data: d})
	}
	for i := 0; i < 400; i++ {
		pkt := mkPkt(fmt.Sprintf("192.0.2.%d", 1+rng.Intn(5)), fmt.Sprintf("10.2.%d.%d", rng.Intn(6), 1+rng.Intn(200)),
			uint16(rng.Intn(50)), 0, uint64(rng.Intn(8)))
		pkt.IP.IHL, pkt.PayloadLen = ihl, 300
		data := capture(t, pkt, lens[rng.Intn(len(lens))])
		at := time.Duration(rng.Intn(12000)) * time.Millisecond
		gap := time.Duration(1+rng.Intn(30)) * time.Millisecond
		variants := [][]byte{data}
		if len(data) > keyBytes && rng.Intn(2) == 0 {
			twin := bytes.Clone(data)
			twin[keyBytes+rng.Intn(len(data)-keyBytes)] ^= 0x55
			variants = append(variants, twin)
		}
		switch ttl, delta := 255, 2+rng.Intn(4); rng.Intn(4) {
		case 0: // a single packet
			emit(at, data, 60)
		case 1: // a pair
			for _, v := range variants {
				emit(at, v, 60)
				emit(at+gap, v, 58)
			}
		default: // a stream, every third observation followed by a delta-1 duplicate
			for k, n := 0, 3+rng.Intn(8); k < n; k, ttl = k+1, ttl-delta {
				for _, v := range variants {
					emit(at+time.Duration(k)*gap, v, ttl)
					if k%3 == 2 {
						emit(at+time.Duration(k)*gap+time.Microsecond, v, ttl-1)
					}
				}
			}
		}
	}
	sortRecords(recs)
	return recs
}

// TestDetectorMatchesNaiveOnOddCaptures: keyed detection and the byte
// definition agree where the key is not the whole capture — snapshots
// shorter than 40 bytes, longer ones whose streams differ only past
// byte 40, and IP headers with options.
func TestDetectorMatchesNaiveOnOddCaptures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeWindow = oracleMergeWindow
	for _, c := range []struct {
		name string
		lens []int
		ihl  uint8
	}{
		{"20 to 39 bytes", []int{20, 21, 27, 28, 32, 39}, 5},
		{"64 and 96 bytes", []int{64, 96}, 5},
		{"41 bytes", []int{41}, 5},
		{"mixed lengths", []int{20, 36, 40, 41, 64, 96}, 5},
		{"options, IHL 6", []int{24, 40, 64}, 6},
		{"options, IHL 15", []int{60, 64, 96}, 15},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			recs := oddTrace(t, seed, c.lens, c.ihl)
			want := NaiveDetectRecords(recs, cfg)
			if len(want.Loops) == 0 || want.PairsDiscarded == 0 {
				t.Fatalf("%s seed %d: %d loops, %d pairs; the trace tests nothing", c.name, seed, len(want.Loops), want.PairsDiscarded)
			}
			requireSameResult(t, fmt.Sprintf("%s seed %d", c.name, seed), DetectRecords(recs, cfg), want)
		}
	}
}

// TestIndexInfluencesNothing: the seeded index, the number of table
// generations and the table's capacity only find first observations and
// builders; they decide nothing. One trace gives the same Result and
// flight events under two seeds and under a third chosen so that forty
// concurrent streams collide in the index, leaving the chain and the
// probe sequence to tell them apart (a seed equal to a key's first word
// makes index ignore its second, and the forty packets differ only
// there, in their source address), each at the default table and at two
// and three generations whose index starts at two and four slots.
func TestIndexInfluencesNothing(t *testing.T) {
	var recs []trace.Record
	base := capture(t, mkPkt("192.0.2.1", "10.3.0.9", 7, 250, 5), 40)
	for i := 0; i < 40; i++ {
		for k, n := 0, 3+i%5; k < n; k++ {
			data := bytes.Clone(base)
			data[14], data[8] = uint8(i), uint8(250-k*(2+i%3))
			recs = append(recs, trace.Record{WireLen: 100, Data: data,
				Time: time.Duration(i)*3*time.Millisecond + time.Duration(k)*20*time.Millisecond})
		}
	}
	recs = append(recs, randomTrace(77, 6*time.Second, 400, 3)...)
	sortRecords(recs)
	colliding := binary.LittleEndian.Uint64(base)

	cfg := DefaultConfig()
	cfg.MergeWindow = oracleMergeWindow
	var longestChain int
	run := func(seed uint64, k, slots int) (*Result, runFingerprint) {
		var res *Result
		fp := fingerprintRun(recs, true, func(fr *flight.Recorder) []*Loop {
			d := NewDetector(cfg)
			d.seed = seed
			if k != 0 {
				d.first = newFirstTable(k, slots, cfg.MaxReplicaGap)
			}
			d.setFlight(fr.Shard(0))
			for _, r := range recs {
				d.Observe(r)
				longestChain = max(longestChain, d.builders-len(d.active))
			}
			res = d.Finish()
			return res.Loops
		})
		return res, fp
	}
	want, wantFP := run(1, 0, 0)
	if len(want.Loops) < 3 || len(want.Streams) < 45 {
		t.Fatalf("%d loops of %d streams; the trace tests nothing", len(want.Loops), len(want.Streams))
	}
	requireSameResult(t, "seed 1 vs naive", want, NaiveDetectRecords(recs, cfg))
	for _, seed := range []uint64{1, 2, colliding} {
		for _, table := range [][2]int{{0, 0}, {2, 2}, {3, 4}} {
			if seed == 1 && table[0] == 0 {
				continue
			}
			longestChain = 0
			label := fmt.Sprintf("seed %#x, table %v", seed, table)
			got, gotFP := run(seed, table[0], table[1])
			requireSameResult(t, label+" vs seed 1", got, want)
			if !reflect.DeepEqual(gotFP, wantFP) {
				t.Errorf("%s: emission order or flight events differ from seed 1", label)
			}
			if seed == colliding && longestChain < 10 {
				t.Errorf("%s: chained at most %d builders; the chain was not exercised", label, longestChain)
			}
		}
	}
}

// TestPromotedBuilderCarriesItsEntry: a packet's second observation
// promotes its table entry to a builder that carries exactly that
// entry's first observation and bytes past the key — nothing of the
// earlier packet whose expired entry occupied the same array slot and
// arena bytes — and owns those bytes, so the next occupant of the slot
// cannot reach it.
func TestPromotedBuilderCarriesItsEntry(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDetector(cfg)
	d.first = newFirstTable(2, 2, cfg.MaxReplicaGap)
	observe := func(at time.Duration, data []byte, ttl uint8) {
		data = bytes.Clone(data)
		data[8] = ttl
		d.Observe(trace.Record{Time: at, WireLen: 400, Data: data})
	}
	packet64 := func(src string, id uint16, fill byte) []byte {
		pkt := mkPkt(src, "10.4.0.9", id, 0, uint64(id))
		pkt.PayloadLen = 300
		data := capture(t, pkt, 64)
		for i := keyBytes; i < len(data); i++ {
			data[i] = fill
		}
		return data
	}
	slotOf := func(data []byte) (*generation, int) {
		key, rest := keyOf(data)
		e := d.first.find(key.index(d.seed), &key, rest)
		for i := range d.first.gens {
			g := &d.first.gens[i]
			for j := range g.obs {
				if &g.obs[j] == e {
					return g, j
				}
			}
		}
		t.Fatal("no live entry for the packet")
		return nil, 0
	}

	// The earlier occupant: seen once, then left to expire.
	old := packet64("192.0.2.1", 1, 0xaa)
	observe(0, old, 200)
	gOld, iOld := slotOf(old)
	// Clock steps past MaxReplicaGap twice: the entry expires and both
	// generations rotate, so the next insert reuses its slot.
	d.Observe(trace.Record{Time: 3 * time.Second}) // too short to parse
	d.Observe(trace.Record{Time: 6 * time.Second})
	if d.first.live != 0 || len(gOld.obs) != 0 {
		t.Fatalf("the old entry has not gone: %d live, %d in its generation", d.first.live, len(gOld.obs))
	}

	pkt := packet64("192.0.2.3", 3, 0x55)
	observe(6*time.Second+time.Millisecond, pkt, 100)
	if g, i := slotOf(pkt); g != gOld || i != iOld || d.first.gen(0) != gOld {
		t.Fatalf("the new packet did not take the old one's slot")
	}
	ps := d.byPrefix[routing.MustParsePrefix("10.4.0.0/24").Addr.Uint32()]
	if ps.open != 1 || !ps.entries[len(ps.entries)-1].open {
		t.Fatalf("the first observation is not marked open in its window: %d open", ps.open)
	}
	seq := ps.base + len(ps.entries) - 1

	observe(6*time.Second+2*time.Millisecond, pkt, 98) // the second sighting
	b := d.live.tail
	key, rest := keyOf(pkt)
	wantRest := bytes.Repeat([]byte{0x55}, 64-keyBytes)
	if b == nil || b.key != key || !bytes.Equal(b.rest, wantRest) || !bytes.Equal(rest, wantRest) {
		t.Fatalf("the promoted builder does not carry the packet's key and bytes: %+v", b)
	}
	if want := []Replica{{6*time.Second + time.Millisecond, 100, 3}, {6*time.Second + 2*time.Millisecond, 98, 4}}; !reflect.DeepEqual(b.replicas, want) {
		t.Fatalf("replicas %v, want %v", b.replicas, want)
	}
	if b.firstEntry != seq || len(b.moreEntries) != 1 || b.moreEntries[0] != seq+1 || b.frOpen || b.chain != nil {
		t.Fatalf("the promoted builder's entries or links are not its own: %+v", b)
	}
	if d.first.live != 0 || ps.open != 1 || !ps.entries[seq-ps.base].open || d.liveBuilders() != 1 || ps.undecided() != b.start() {
		t.Fatalf("promotion left the entry behind or closed the packet: %d live entries, %d open, %d live", d.first.live, ps.open, d.liveBuilders())
	}

	// The next packet into the same generation writes the same arena
	// bytes; the builder's copy is its own.
	gOld.arena[0] = 0x11
	if !bytes.Equal(b.rest, wantRest) {
		t.Fatal("the builder's bytes alias the table's arena")
	}
	for i, ttl := range []uint8{96, 94} {
		observe(6*time.Second+time.Duration(3+i)*time.Millisecond, pkt, ttl)
	}
	res := d.Finish()
	if len(res.Streams) != 1 || res.Streams[0].Summary.ID != 3 || res.Streams[0].Count() != 4 || res.Streams[0].Replicas[0].Index != 3 {
		t.Errorf("streams after promotion: %+v", res.Streams)
	}
}

// TestFlightStreamIDStable: the stream ID in flight events is FNV-1a of
// the masked capture, as it was when the builder kept those bytes —
// trails are compared across versions — for a 40-byte snapshot and for
// a capture with bytes past the key. The validated stream's Ident is
// the same value, so an identity in a fleet document finds its trail.
func TestFlightStreamIDStable(t *testing.T) {
	for _, snap := range []int{40, 96} {
		pkt := mkPkt("192.0.2.1", "203.0.113.5", 101, 62, 1)
		pkt.PayloadLen = 300
		data := capture(t, pkt, snap)
		fr := flight.New(flight.Options{SampleEvery: 1})
		d := NewDetector(DefaultConfig())
		d.setFlight(fr.Shard(0))
		for i, ttl := range []uint8{62, 60, 59, 57, 55} { // one duplicate
			r := trace.Record{Time: time.Duration(i) * time.Millisecond, WireLen: 400, Data: bytes.Clone(data)}
			r.Data[8] = ttl
			d.Observe(r)
		}
		res := d.Finish()
		if len(res.Loops) != 1 {
			t.Fatalf("snaplen %d: %d loops, want 1", snap, len(res.Loops))
		}
		want := fnv64a(maskReplica(data))
		if got := res.Streams[0].Ident; got != want {
			t.Errorf("snaplen %d: stream Ident %#x, want the flight stream ID %#x", snap, got, want)
		}
		seen := make(map[flight.Kind]bool)
		for _, ev := range fr.Seal("t", routing.MustParsePrefix("203.0.113.0/24"), 0, time.Second, 0).Events {
			switch ev.Kind {
			case flight.KindStreamOpen, flight.KindReplica, flight.KindDuplicate,
				flight.KindStreamClose, flight.KindCandidate, flight.KindValidated:
				seen[ev.Kind] = true
				if ev.Stream != want {
					t.Errorf("snaplen %d: %v event has stream %#x, want %#x", snap, ev.Kind, ev.Stream, want)
				}
			}
		}
		if len(seen) != 6 {
			t.Errorf("snaplen %d: stream-level kinds seen: %v, want all six", snap, seen)
		}
	}
}
