package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"loopscope/internal/trace"
)

// TestFirstObservationHeapAllocationBudget: once warm, a first
// observation costs the live heap at most 128 bytes — its table entry,
// its share of the index and of the generations not yet reused — where
// a pooled builder and its map slot cost about 300. The per-prefix
// windows, which hold every packet whatever it turns out to be, are
// counted out.
func TestFirstObservationHeapAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	recs := randomTrace(5, 8*time.Second, 20000, 0)
	cfg := DefaultConfig()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	d := NewDetector(cfg)
	worst, samples := 0.0, 0
	for i, r := range recs {
		d.Observe(r)
		if r.Time < 2*cfg.MaxReplicaGap || i%5000 != 0 {
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		windows := 0
		for _, ps := range d.byPrefix {
			windows += cap(ps.store) * int(unsafe.Sizeof(pktEntry{}))
		}
		if d.first.live < 30000 || d.builders != 0 {
			t.Fatalf("at %v: %d live first observations and %d builders; the trace is not the one described", r.Time, d.first.live, d.builders)
		}
		per := float64(int(ms.HeapAlloc-base)-windows) / float64(d.first.live)
		worst, samples = max(worst, per), samples+1
	}
	runtime.KeepAlive(recs)
	t.Logf("%d samples: at most %.1f B of live heap per live first observation", samples, worst)
	if samples < 10 || worst > 128 {
		t.Errorf("%d samples, up to %.1f B per live first observation; budget 128", samples, worst)
	}
}

// TestFirstTableMissReadsNoEntry: a lookup reads only the entries whose
// slot tag matches its own, and a matching tag still compares the key —
// in a fresh index, in one doubled twice and in the 2-slot table
// TestIndexInfluencesNothing uses. On a trace of singletons almost no
// lookup reads an entry at all.
func TestFirstTableMissReadsNoEntry(t *testing.T) {
	const seed = 1
	key := func(id uint16) replicaKey {
		k, _ := keyOf(capture(t, mkPkt("192.0.2.1", "10.5.0.9", id, 0, uint64(id)), 40))
		return k
	}
	other := key(999)
	for _, c := range []struct {
		name                  string
		slots, entries, grown int
	}{{"fresh index", minSlots, 3, minSlots}, {"doubled index", 2, 3, 8}, {"2-slot table", 2, 1, 2}} {
		ft := newFirstTable(2, c.slots, time.Second)
		for i := 0; i < c.entries; i++ {
			k := key(uint16(i))
			ft.insert(k.index(seed), seed, &k, nil, Replica{}, i)
		}
		if n := len(ft.slots) / len(ft.gens); n != c.grown {
			t.Fatalf("%s: %d slots, want %d; the table is not the one described", c.name, n, c.grown)
		}
		k := key(0)
		h := k.index(seed)
		for _, probe := range []struct {
			what  string
			h     uint64
			key   *replicaKey
			found bool
			reads int
		}{
			{"same slot, other tag", h ^ 1<<63, &k, false, 0},
			{"same tag, other key", h, &other, false, 1},
			{"the entry", h, &k, true, 1},
		} {
			ft.entryReads = 0
			if e := ft.find(probe.h, probe.key, nil); (e != nil) != probe.found || ft.entryReads != probe.reads {
				t.Errorf("%s, %s: found %v after %d entry reads, want %v after %d",
					c.name, probe.what, e != nil, ft.entryReads, probe.found, probe.reads)
			}
		}
	}

	recs := randomTrace(9, 4*time.Second, 20000, 0)
	d := NewDetector(DefaultConfig())
	d.seed = seed
	seen := make(map[string]bool, len(recs))
	repeats := 0 // at least the promotions
	for _, r := range recs {
		m := string(maskReplica(r.Data))
		if seen[m] {
			repeats++
		}
		seen[m] = true
		d.Observe(r)
	}
	lookups := len(recs) // at most one per record
	t.Logf("%d lookups, %d repeats, %d entry reads", lookups, repeats, d.first.entryReads)
	if repeats > lookups/100 || d.first.entryReads > repeats+lookups/1000 {
		t.Errorf("%d lookups, %d repeats: %d entry reads, want at most repeats + lookups/1000", lookups, repeats, d.first.entryReads)
	}
}

// TestInterleavedIndex: the k generations share one index of k-slot
// buckets, column i indexing generation i. A doubling that the newest
// generation starts re-places the entries of every generation, and a
// rotation clears the reused generation's column and no other.
func TestInterleavedIndex(t *testing.T) {
	const seed, k = 1, 4
	ft := newFirstTable(k, 8, (k-1)*time.Second)
	var keys [k][]replicaKey
	var rests [k][][]byte
	for c, n := 0, 0; c < k; c++ {
		ft.rotate(time.Duration(c) * time.Second)
		for i := 0; i < 3+2*(c/(k-1)); i, n = i+1, n+1 { // 3, 3, 3 and 5 entries
			pkt := mkPkt("192.0.2.1", "10.5.0.9", uint16(n), 0, uint64(n))
			pkt.PayloadLen = 300
			key, rest := keyOf(capture(t, pkt, 40+24*(n%2)))
			ft.insert(key.index(seed), seed, &key, rest, Replica{Index: n}, n)
			keys[c], rests[c] = append(keys[c], key), append(rests[c], rest)
		}
	}
	if ft.newest != k-1 || len(ft.slots) != k*16 {
		t.Fatalf("newest generation %d, %d buckets; want %d and 16, doubled once", ft.newest, len(ft.slots)/k, k-1)
	}
	find := func(c, i int) *firstObs { return ft.find(keys[c][i].index(seed), &keys[c][i], rests[c][i]) }
	for c := range keys {
		for i := range keys[c] {
			if e := find(c, i); e == nil || e != &ft.gens[c].obs[i] {
				t.Errorf("generation %d, entry %d: not found after the doubling", c, i)
			}
		}
	}

	for i := range keys[0] {
		ft.drop(find(0, i))
	}
	ft.rotate(k * time.Second)
	for c := range keys {
		used := 0
		for p := c; p < len(ft.slots); p += k {
			if ft.slots[p] != 0 {
				used++
			}
		}
		if want := len(keys[c]) * min(c, 1); ft.newest != 0 || used != want {
			t.Errorf("after rotation to generation %d: column %d holds %d slots, want %d", ft.newest, c, used, want)
		}
		for i := range keys[c] {
			if e := find(c, i); (e != nil) != (c != 0) {
				t.Errorf("after rotation: generation %d, entry %d found %v", c, i, e != nil)
			}
		}
	}
}

// fuzzSteps are the time steps a fuzz trace takes between records: ties,
// the loop revolutions of the paper, the rotation period at k = 4 and
// k = 2 and MaxReplicaGap itself, each with its neighbours, and a step
// past the merge window.
var fuzzSteps = [16]time.Duration{0, time.Microsecond, time.Millisecond, 5 * time.Millisecond,
	50 * time.Millisecond, 300 * time.Millisecond, 666666666, 666666667, 666666668,
	1333333334, 1999999999, 2 * time.Second, 2000000001, 2500 * time.Millisecond,
	4 * time.Second, 61 * time.Second}

// fuzzTrace decodes two bytes per record: which of eight packets
// towards three prefixes, its capture length (20, 40 or 64 bytes), its
// TTL step since its last observation (0–6, or 7: back up to 250, a
// retransmission) and the time step (fuzzSteps).
func fuzzTrace(t *testing.T, data []byte) []trace.Record {
	var caps [8][3][]byte
	for i := range caps {
		pkt := mkPkt("192.0.2.1", fmt.Sprintf("10.0.%d.%d", i%3, 1+i), uint16(i), 0, uint64(i))
		pkt.PayloadLen = 300
		for j, n := range []int{20, 40, 64} {
			caps[i][j] = capture(t, pkt, n)
		}
	}
	var ttl [8]int
	var now time.Duration
	var recs []trace.Record
	for ; len(data) >= 2 && len(recs) < 256; data = data[2:] {
		p, step := data[0]&7, int(data[0]>>5)
		if step == 7 || ttl[p]-step < 1 {
			ttl[p] = 250
		} else {
			ttl[p] -= step
		}
		now += fuzzSteps[data[1]&15]
		c := bytes.Clone(caps[p][int(data[0]>>3&3)%3])
		c[8] = uint8(ttl[p])
		recs = append(recs, trace.Record{Time: now, WireLen: 400, Data: c})
	}
	return recs
}

// fuzzSeed encodes a trace into fuzzTrace's alphabet as nearly as it
// goes: distinct captures in order of appearance modulo eight, the
// nearest time step and the TTL step clamped.
func fuzzSeed(recs []trace.Record) []byte {
	ids := make(map[string]int)
	var last [8]int
	var out []byte
	var prev time.Duration
	for _, r := range recs {
		k := string(maskReplica(r.Data))
		id, ok := ids[k]
		if !ok {
			id = len(ids) % 8
			ids[k] = id
		}
		step := 7
		if d := last[id] - int(r.Data[8]); d >= 0 && d <= 6 {
			step = d
		}
		last[id] = int(r.Data[8])
		near := 0
		for i, s := range fuzzSteps {
			if (r.Time - prev - s).Abs() < (r.Time - prev - fuzzSteps[near]).Abs() {
				near = i
			}
		}
		prev = r.Time
		out = append(out, byte(step<<5|1<<3|id), byte(near))
	}
	return out
}

// FuzzDetectorMatchesNaive: on short traces from a small alphabet, the
// Detector — collecting, and emitting as it goes — finds exactly what
// NaiveDetector finds, with the default table and with two generations
// whose index starts at two slots, so rotation, postponed rotation,
// index growth and the arena are all on the path.
func FuzzDetectorMatchesNaive(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(fuzzSeed(randomTrace(seed, 3*time.Second, 60, 2)))
	}
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := fuzzTrace(t, data)
		if len(recs) == 0 {
			return
		}
		want := NaiveDetectRecords(recs, cfg)
		for _, small := range []bool{false, true} {
			var emitted int
			for _, d := range []*Detector{NewDetector(cfg), NewStreamDetector(cfg, func(*Loop) { emitted++ })} {
				if small {
					d.first = newFirstTable(2, 2, cfg.MaxReplicaGap)
				}
				for _, r := range recs {
					d.Observe(r)
				}
				requireSameResult(t, fmt.Sprintf("small table %v, emitting %v", small, d.emit != nil), d.Finish(), want)
			}
			if emitted != len(want.Loops) {
				t.Fatalf("small table %v: %d loops emitted, want %d", small, emitted, len(want.Loops))
			}
		}
	})
}
