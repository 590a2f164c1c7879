package flight

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"loopscope/internal/routing"
)

// refLoopID is an independent re-implementation of the journal event
// ID hash; LoopID must match it byte-for-byte forever, because resume
// dedup and the trace API both key on it.
func refLoopID(parts ...string) string {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

func TestLoopIDStable(t *testing.T) {
	cases := []struct {
		source, prefix string
		start          int64
	}{
		{"", "203.0.113.0/24", 5_000_000_000},
		{"bb1", "10.1.2.0/24", 0},
		{"feed", "198.51.100.0/24", -125000},
	}
	for _, c := range cases {
		want := refLoopID(c.source, c.prefix, fmt.Sprintf("%d", c.start))
		got := LoopID(c.source, c.prefix, c.start)
		if got != want {
			t.Errorf("LoopID(%q,%q,%d) = %s, want %s", c.source, c.prefix, c.start, got, want)
		}
		if len(got) != 16 {
			t.Errorf("LoopID length = %d, want 16", len(got))
		}
	}
	if LoopID("a", "p", 1) == LoopID("b", "p", 1) {
		t.Error("distinct sources hashed to the same ID")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if s := r.Shard(0); s != nil {
		t.Fatal("nil recorder returned non-nil shard")
	}
	var s *ShardRecorder
	s.Record(Event{Kind: KindReplica}) // must not panic
	if s.SampleReplica(1) {
		t.Error("nil shard sampled a replica")
	}
	if tr := r.Seal("x", routing.MustParsePrefix("10.0.0.0/24"), 0, time.Second, 0); tr != nil {
		t.Error("nil recorder sealed a trail")
	}
	if r.Trail("x") != nil || r.TrailIDs() != nil {
		t.Error("nil recorder returned trails")
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Errorf("nil recorder stats = %+v", st)
	}
}

func TestRecordSealWindow(t *testing.T) {
	r := New(Options{})
	pfx := routing.MustParsePrefix("203.0.113.0/24")
	other := routing.MustParsePrefix("198.51.100.0/24")
	s0, s1 := r.Shard(0), r.Shard(1)

	s0.Record(Event{Time: 1 * time.Second, Kind: KindStreamOpen, Prefix: pfx, TTL: 30})
	s1.Record(Event{Time: 2 * time.Second, Kind: KindReplica, Prefix: pfx, TTL: 28, Count: 2})
	s0.Record(Event{Time: 2 * time.Second, Kind: KindReplica, Prefix: other})            // wrong prefix
	s0.Record(Event{Time: 30 * time.Second, Kind: KindLoopFinal, Prefix: pfx, Count: 1}) // outside window
	s1.Record(Event{Time: 3 * time.Second, Kind: KindLoopFinal, Prefix: pfx, Count: 1})

	tr := r.Seal("id1", pfx, 1500*time.Millisecond, 3*time.Second, time.Second)
	if tr == nil {
		t.Fatal("Seal returned nil")
	}
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(tr.Events), tr.Events)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i-1].Seq >= tr.Events[i].Seq {
			t.Fatalf("events not in seq order: %+v", tr.Events)
		}
	}
	if tr.Events[0].Kind != KindStreamOpen || tr.Events[2].Kind != KindLoopFinal {
		t.Errorf("unexpected ordering: %+v", tr.Events)
	}
	if tr.Truncated {
		t.Error("unwrapped ring marked trail truncated")
	}
	if got := r.Trail("id1"); got != tr {
		t.Error("Trail(id1) did not return the sealed trail")
	}
}

func TestRingWrapMarksTruncated(t *testing.T) {
	r := New(Options{PerShardEvents: 4})
	pfx := routing.MustParsePrefix("10.0.0.0/24")
	s := r.Shard(0)
	for i := 0; i < 10; i++ {
		s.Record(Event{Time: time.Duration(i) * time.Second, Kind: KindReplica, Prefix: pfx})
	}
	// Window starts before the oldest retained event (t=6s): truncated.
	tr := r.Seal("id", pfx, 0, 10*time.Second, 0)
	if !tr.Truncated {
		t.Error("wrapped ring did not mark trail truncated")
	}
	if len(tr.Events) != 4 {
		t.Errorf("got %d events, want the 4 retained", len(tr.Events))
	}
	// Window fully inside the retained span: not truncated.
	tr2 := r.Seal("id2", pfx, 7*time.Second, 10*time.Second, 0)
	if tr2.Truncated {
		t.Error("in-ring window marked truncated")
	}
}

// bruteSeal is Seal's reference: copy every shard's ring, keep the
// events towards prefix inside [from, to], order them by sequence, and
// call the trail truncated when a wrapped ring's oldest retained event
// (the smallest sequence number) lies after from.
func bruteSeal(r *Recorder, prefix routing.Prefix, from, to time.Duration) ([]Event, bool) {
	var out []Event
	truncated := false
	for _, s := range r.shards {
		s.mu.Lock()
		ring := append([]Event(nil), s.buf...)
		wrapped := s.wrapped
		s.mu.Unlock()
		if wrapped {
			oldest := ring[0]
			for _, ev := range ring {
				if ev.Seq < oldest.Seq {
					oldest = ev
				}
			}
			truncated = truncated || oldest.Time > from
		}
		for _, ev := range ring {
			if ev.Prefix == prefix && ev.Time >= from && ev.Time <= to {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, truncated
}

// TestSealMatchesBruteForce: across several wraps of small rings, with
// event times that run backwards as well as forwards (a stream-open
// carries its first replica's time), every Seal equals the brute-force
// filter over a copy of the rings — events, order and Truncated.
func TestSealMatchesBruteForce(t *testing.T) {
	const ring, shards = 64, 3
	rng := rand.New(rand.NewSource(7))
	r := New(Options{PerShardEvents: ring})
	prefixes := []routing.Prefix{
		routing.MustParsePrefix("10.0.0.0/24"),
		routing.MustParsePrefix("10.0.1.0/24"),
		routing.MustParsePrefix("192.0.2.0/24"),
		routing.MustParsePrefix("203.0.113.0/24"),
	}
	clock, seals := time.Duration(0), 0
	var recorded [shards]int
	for i := 0; i < 5*ring*shards; i++ {
		clock += time.Duration(rng.Intn(50)) * time.Millisecond
		at := clock - time.Duration(rng.Intn(2000))*time.Millisecond
		shard := rng.Intn(shards)
		recorded[shard]++
		r.Shard(shard).Record(Event{
			Time: at, Kind: Kind(1 + rng.Intn(10)), Prefix: prefixes[rng.Intn(len(prefixes))],
			Stream: uint64(rng.Intn(8)), TTL: uint8(rng.Intn(64)),
		})
		if i%13 != 0 {
			continue
		}
		pfx := prefixes[rng.Intn(len(prefixes))]
		end := clock - time.Duration(rng.Intn(1000))*time.Millisecond
		start := end - time.Duration(rng.Intn(3000))*time.Millisecond
		margin := time.Duration(rng.Intn(2000)) * time.Millisecond
		tr := r.Seal(fmt.Sprintf("seal-%d", i), pfx, start, end, margin)
		want, truncated := bruteSeal(r, pfx, start-margin, end)
		if len(tr.Events) == 0 && len(want) == 0 {
			tr.Events = want // nil and empty alike
		}
		if !reflect.DeepEqual(tr.Events, want) || tr.Truncated != truncated {
			t.Fatalf("seal %d: %d events (truncated %v), brute force %d (truncated %v)",
				i, len(tr.Events), tr.Truncated, len(want), truncated)
		}
		seals++
	}
	for i, n := range recorded {
		if n < 4*ring { // filled once, then overwritten three times
			t.Fatalf("shard %d took %d events: fewer than three wraps of %d", i, n, ring)
		}
	}
	t.Logf("%d seals over %d events", seals, r.events.Load())
}

func TestSampling(t *testing.T) {
	r := New(Options{SampleHead: 3, SampleEvery: 5})
	s := r.Shard(0)
	var kept []int
	for n := 1; n <= 20; n++ {
		if s.SampleReplica(n) {
			kept = append(kept, n)
		}
	}
	want := []int{1, 2, 3, 5, 10, 15, 20}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Errorf("sampled %v, want %v", kept, want)
	}
	// SampleEvery=1 keeps everything.
	r1 := New(Options{SampleEvery: 1})
	for n := 1; n <= 50; n++ {
		if !r1.Shard(0).SampleReplica(n) {
			t.Fatalf("SampleEvery=1 dropped replica %d", n)
		}
	}
}

func TestTrailEvictionFIFO(t *testing.T) {
	r := New(Options{TrailCap: 2})
	pfx := routing.MustParsePrefix("10.0.0.0/24")
	r.Seal("a", pfx, 0, time.Second, 0)
	r.Seal("b", pfx, 0, time.Second, 0)
	r.Seal("a", pfx, 0, time.Second, 0) // re-seal must not evict or duplicate
	r.Seal("c", pfx, 0, time.Second, 0)
	if r.Trail("a") != nil {
		t.Error("oldest trail not evicted")
	}
	if r.Trail("b") == nil || r.Trail("c") == nil {
		t.Error("recent trails evicted")
	}
	ids := r.TrailIDs()
	if len(ids) != 2 || ids[0] != "c" || ids[1] != "b" {
		t.Errorf("TrailIDs = %v, want [c b]", ids)
	}
	st := r.Stats()
	if st.Sealed != 4 || st.Trails != 2 || st.Evicted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEventJSONWireNames(t *testing.T) {
	ev := Event{
		Seq: 7, Time: 1500 * time.Millisecond, Kind: KindReject,
		Reason: ReasonSubnetInvalidated, Stream: 0xdeadbeef, Count: 4,
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"kind":"reject"`, `"reason":"subnet-invalidated"`, `"timeNs":1500000000`, `"count":4`} {
		if !strings.Contains(s, want) {
			t.Errorf("marshal %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "gapNs") || strings.Contains(s, "ttl") {
		t.Errorf("zero fields not omitted: %s", s)
	}
}

func TestKindReasonStrings(t *testing.T) {
	kinds := []Kind{KindStreamOpen, KindReplica, KindDuplicate, KindStreamClose,
		KindCandidate, KindReject, KindValidated, KindLoopOpen, KindMerge, KindLoopFinal}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Errorf("bad or duplicate kind name %q", s)
		}
		seen[s] = true
	}
	reasons := []Reason{ReasonReplicaGap, ReasonTTLRise, ReasonEndOfTrace,
		ReasonPairDiscarded, ReasonBelowMinReplicas, ReasonSubnetInvalidated,
		ReasonMergeGapWide, ReasonDirtyGap}
	seenR := map[string]bool{}
	for _, r := range reasons {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "reason(") || seenR[s] {
			t.Errorf("bad or duplicate reason name %q", s)
		}
		seenR[s] = true
	}
	if ReasonNone.String() != "" {
		t.Errorf("ReasonNone.String() = %q, want empty", ReasonNone.String())
	}
}

func TestRenderTrail(t *testing.T) {
	r := New(Options{})
	pfx := routing.MustParsePrefix("203.0.113.0/24")
	s := r.Shard(0)
	s.Record(Event{Time: time.Second, Kind: KindStreamOpen, Prefix: pfx, Stream: 42, TTL: 30})
	s.Record(Event{Time: 2 * time.Second, Kind: KindLoopFinal, Prefix: pfx, Count: 1})
	tr := r.Seal("abc", pfx, time.Second, 2*time.Second, 0)
	var sb strings.Builder
	RenderTrail(&sb, tr)
	out := sb.String()
	for _, want := range []string{"loop abc", "203.0.113.0/24", "stream-open", "loop-final", "ttl=30"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	var nb strings.Builder
	RenderTrail(&nb, nil)
	if !strings.Contains(nb.String(), "no trail") {
		t.Error("nil trail render")
	}
}
