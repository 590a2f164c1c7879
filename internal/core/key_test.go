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
		if got := ka.masked(restA); !bytes.Equal(got, ma) || len(restA) != max(len(a), keyBytes)-keyBytes {
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

// TestIndexInfluencesNothing: the seeded index only finds builders; it
// decides nothing. One trace gives the same Result and flight events
// under two seeds and under a third chosen so that forty concurrent
// streams collide in the index, leaving the chain to tell them apart: a
// seed equal to a key's first word makes index ignore its second, and
// the forty packets differ only there, in their source address.
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
	run := func(seed uint64) (*Result, runFingerprint) {
		var res *Result
		fp := fingerprintRun(recs, true, func(fr *flight.Recorder) []*Loop {
			d := NewDetector(cfg)
			d.seed = seed
			d.SetFlight(fr.Shard(0))
			for _, r := range recs {
				d.Observe(r)
				longestChain = max(longestChain, d.liveBuilders-len(d.active))
			}
			res = d.Finish()
			return res.Loops
		})
		return res, fp
	}
	want, wantFP := run(1)
	if len(want.Loops) < 3 || len(want.Streams) < 45 {
		t.Fatalf("%d loops of %d streams; the trace tests nothing", len(want.Loops), len(want.Streams))
	}
	requireSameResult(t, "seed 1 vs naive", want, NaiveDetectRecords(recs, cfg))
	for _, seed := range []uint64{2, colliding} {
		longestChain = 0
		got, gotFP := run(seed)
		requireSameResult(t, fmt.Sprintf("seed %#x vs seed 1", seed), got, want)
		if !reflect.DeepEqual(gotFP, wantFP) {
			t.Errorf("seed %#x: emission order or flight events differ from seed 1", seed)
		}
		if seed == colliding && longestChain < 10 {
			t.Errorf("colliding seed chained at most %d builders; the chain was not exercised", longestChain)
		}
	}
}

// TestRecycledBuilderCarriesNothing: a builder that had bytes past the
// key, further entries, an open flight record and a replica slice that
// went out in a published stream comes back from the free list with
// nothing of all that, and the stream the next packet builds in it
// leaves the published one alone.
func TestRecycledBuilderCarriesNothing(t *testing.T) {
	cfg := DefaultConfig()
	d := NewDetector(cfg)
	d.SetFlight(flight.New(flight.Options{SampleEvery: 1}).Shard(0))
	observe := func(at time.Duration, data []byte, ttl uint8) {
		data = bytes.Clone(data)
		data[8] = ttl
		d.Observe(trace.Record{Time: at, WireLen: 400, Data: data})
	}
	pkt := mkPkt("192.0.2.1", "10.4.0.9", 1, 0, 1)
	pkt.PayloadLen = 300
	first := capture(t, pkt, 64)
	for i, ttl := range []uint8{200, 198, 197, 195, 193} { // 197 is a delta-1 duplicate
		observe(time.Duration(i)*time.Millisecond, first, ttl)
	}
	b := d.live.tail
	if len(b.rest) != 64-keyBytes || len(b.replicas) != 4 || len(b.moreEntries) != 4 || !b.frOpen || b.stream == 0 {
		t.Fatalf("the builder under test is not the one described: %+v", b)
	}

	// A record too short to parse starts no builder but moves the
	// clock: past MaxReplicaGap, so b expires into its prefix's pending
	// list, and the advance of the same Observe validates and publishes
	// it.
	d.Observe(trace.Record{Time: 3 * time.Second})
	if d.free != b {
		t.Fatal("the published builder is not at the head of the free list")
	}
	if bare := *b; !reflect.DeepEqual(bare, builder{chain: b.chain}) { // chain links the free list
		t.Errorf("recycled builder still carries %+v", bare)
	}
	ps := d.byPrefix[routing.MustParsePrefix("10.4.0.0/24").Addr.Uint32()]
	if ps == nil || ps.loop == nil {
		t.Fatal("the stream was not published into a loop")
	}
	published := ps.loop.Streams[0]
	before := append([]Replica(nil), published.Replicas...)

	// The next new packet gets b; grow its stream past the old one's.
	second := capture(t, mkPkt("192.0.2.3", "10.4.0.10", 3, 0, 3), 40)
	for i := 0; i < 8; i++ {
		observe(3*time.Second+time.Duration(1+i)*time.Millisecond, second, uint8(100-2*i))
	}
	if d.live.tail != b || len(b.replicas) != 8 || len(b.rest) != 0 || b.frOpen == false {
		t.Fatalf("the recycled builder was not reused as expected: %+v", b)
	}
	if !reflect.DeepEqual(published.Replicas, before) || len(before) != 4 {
		t.Errorf("published replicas changed under reuse:\n got %v\nwant %v", published.Replicas, before)
	}
	res := d.Finish()
	if len(res.Streams) != 2 || res.Streams[0].Summary.ID != 1 || res.Streams[1].Summary.ID != 3 ||
		res.Streams[0].Count() != 4 || res.Streams[1].Count() != 8 {
		t.Errorf("streams after reuse: %+v", res.Streams)
	}
}

// TestFlightStreamIDStable: the stream ID in flight events is FNV-1a of
// the masked capture, as it was when the builder kept those bytes —
// trails are compared across versions — for a 40-byte snapshot and for
// a capture with bytes past the key.
func TestFlightStreamIDStable(t *testing.T) {
	for _, snap := range []int{40, 96} {
		pkt := mkPkt("192.0.2.1", "203.0.113.5", 101, 62, 1)
		pkt.PayloadLen = 300
		data := capture(t, pkt, snap)
		fr := flight.New(flight.Options{SampleEvery: 1})
		d := NewDetector(DefaultConfig())
		d.SetFlight(fr.Shard(0))
		for i, ttl := range []uint8{62, 60, 59, 57, 55} { // one duplicate
			r := trace.Record{Time: time.Duration(i) * time.Millisecond, WireLen: 400, Data: bytes.Clone(data)}
			r.Data[8] = ttl
			d.Observe(r)
		}
		if res := d.Finish(); len(res.Loops) != 1 {
			t.Fatalf("snaplen %d: %d loops, want 1", snap, len(res.Loops))
		}
		want := fnv64a(maskReplica(data))
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
