package core

import (
	"flag"
	"testing"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// mkPkt builds a serialisable UDP packet towards dst with the given IP
// ID; the payload seed keys the transport checksum, standing in for
// payload content.
func mkPkt(src, dst string, id uint16, ttl uint8, seed uint64) packet.Packet {
	return packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: ttl, Protocol: packet.ProtoUDP,
			Src: packet.MustParseAddr(src), Dst: packet.MustParseAddr(dst),
			ID: id,
		},
		Kind:         packet.KindUDP,
		UDP:          packet.UDPHeader{SrcPort: 1234, DstPort: 80},
		HasTransport: true,
		PayloadLen:   64,
		PayloadSeed:  seed,
	}
}

// rec serialises pkt into a 40-byte snapshot record at time t.
func rec(t *testing.T, at time.Duration, pkt packet.Packet) trace.Record {
	t.Helper()
	buf := make([]byte, trace.DefaultSnapLen)
	n, err := pkt.Serialize(buf, trace.DefaultSnapLen)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return trace.Record{Time: at, WireLen: pkt.WireLen(), Data: buf[:n]}
}

// replicaRun emits n replicas of one packet starting at start, spaced
// by gap, with the TTL dropping by delta each time.
func replicaRun(t *testing.T, start time.Duration, gap time.Duration, pkt packet.Packet, n, delta int) []trace.Record {
	t.Helper()
	var out []trace.Record
	ttl := int(pkt.IP.TTL)
	for i := 0; i < n; i++ {
		p := pkt
		p.IP.TTL = uint8(ttl)
		out = append(out, rec(t, start+time.Duration(i)*gap, p))
		ttl -= delta
		if ttl <= 0 {
			break
		}
	}
	return out
}

func sortRecords(recs []trace.Record) {
	// Insertion sort keeps the helper dependency-free and traces are
	// small in tests.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Time < recs[j-1].Time; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

func TestDetectSingleStream(t *testing.T) {
	var recs []trace.Record
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 77, 62, 1)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, pkt, 10, 2)...)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(res.Streams))
	}
	s := res.Streams[0]
	if s.Count() != 10 {
		t.Errorf("replicas = %d, want 10", s.Count())
	}
	if got := s.TTLDelta(); got != 2 {
		t.Errorf("TTL delta = %d, want 2", got)
	}
	if s.Prefix != routing.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("prefix = %v", s.Prefix)
	}
	if got := s.MeanSpacing(); got != 10*time.Millisecond {
		t.Errorf("mean spacing = %v, want 10ms", got)
	}
	if len(res.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(res.Loops))
	}
	if res.LoopedPackets != 10 {
		t.Errorf("looped packets = %d, want 10", res.LoopedPackets)
	}
}

func TestDetectPairDiscarded(t *testing.T) {
	var recs []trace.Record
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 9, 64, 2)
	recs = append(recs, replicaRun(t, time.Second, 5*time.Millisecond, pkt, 2, 2)...)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 0 {
		t.Fatalf("streams = %d, want 0 (pair is a link-layer duplicate)", len(res.Streams))
	}
	if res.PairsDiscarded != 1 {
		t.Errorf("pairs discarded = %d, want 1", res.PairsDiscarded)
	}
}

func TestDetectTTLDeltaOneRejected(t *testing.T) {
	var recs []trace.Record
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 10, 64, 3)
	recs = append(recs, replicaRun(t, time.Second, 5*time.Millisecond, pkt, 6, 1)...)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 0 {
		t.Fatalf("streams = %d, want 0 (delta-1 runs are not loops)", len(res.Streams))
	}
}

func TestDetectSubnetInvalidation(t *testing.T) {
	var recs []trace.Record
	loop := mkPkt("192.0.2.1", "203.0.113.5", 11, 64, 4)
	recs = append(recs, replicaRun(t, time.Second, 20*time.Millisecond, loop, 8, 2)...)
	// A different packet to the same /24 crossing cleanly (one
	// observation) in the middle of the stream window refutes it.
	clean := mkPkt("192.0.2.2", "203.0.113.99", 500, 61, 5)
	recs = append(recs, rec(t, time.Second+50*time.Millisecond, clean))
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 0 {
		t.Fatalf("streams = %d, want 0 (subnet validation must reject)", len(res.Streams))
	}
	if res.SubnetInvalidated != 1 {
		t.Errorf("subnet invalidated = %d, want 1", res.SubnetInvalidated)
	}

	// The same trace with validation off keeps the stream.
	cfg := DefaultConfig()
	cfg.ValidateSubnet = false
	res = DetectRecords(recs, cfg)
	if len(res.Streams) != 1 {
		t.Fatalf("streams without validation = %d, want 1", len(res.Streams))
	}
}

func TestDetectConcurrentLoopedPacketsValidate(t *testing.T) {
	// Two packets to the same /24 both looping: each stream's window
	// contains the other's replicas, which are members, so both
	// validate.
	var recs []trace.Record
	a := mkPkt("192.0.2.1", "203.0.113.5", 21, 64, 6)
	b := mkPkt("192.0.2.3", "203.0.113.8", 22, 128, 7)
	recs = append(recs, replicaRun(t, time.Second, 20*time.Millisecond, a, 8, 2)...)
	recs = append(recs, replicaRun(t, time.Second+7*time.Millisecond, 20*time.Millisecond, b, 8, 2)...)
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(res.Streams))
	}
	if len(res.Loops) != 1 {
		t.Fatalf("loops = %d, want 1 (overlapping streams merge)", len(res.Loops))
	}
	if got := res.Loops[0].Replicas(); got != 16 {
		t.Errorf("loop replicas = %d, want 16", got)
	}
}

func TestMergeWindow(t *testing.T) {
	mk := func(gap time.Duration) *Result {
		var recs []trace.Record
		a := mkPkt("192.0.2.1", "203.0.113.5", 31, 64, 8)
		b := mkPkt("192.0.2.1", "203.0.113.5", 32, 64, 9)
		recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, a, 6, 2)...)
		recs = append(recs, replicaRun(t, time.Second+gap, 10*time.Millisecond, b, 6, 2)...)
		sortRecords(recs)
		return DetectRecords(recs, DefaultConfig())
	}

	res := mk(30 * time.Second)
	if len(res.Streams) != 2 || len(res.Loops) != 1 {
		t.Errorf("30s apart: streams=%d loops=%d, want 2 streams merged into 1 loop",
			len(res.Streams), len(res.Loops))
	}
	res = mk(90 * time.Second)
	if len(res.Streams) != 2 || len(res.Loops) != 2 {
		t.Errorf("90s apart: streams=%d loops=%d, want 2 separate loops",
			len(res.Streams), len(res.Loops))
	}
}

func TestMergeBlockedByCleanTraffic(t *testing.T) {
	// Two streams 30 s apart, but a clean packet to the subnet sits
	// in the gap: the loop evidently healed in between, so the
	// streams must remain separate loops.
	var recs []trace.Record
	a := mkPkt("192.0.2.1", "203.0.113.5", 41, 64, 10)
	b := mkPkt("192.0.2.1", "203.0.113.5", 42, 64, 11)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, a, 6, 2)...)
	recs = append(recs, rec(t, 15*time.Second, mkPkt("192.0.2.9", "203.0.113.77", 900, 60, 12)))
	recs = append(recs, replicaRun(t, 31*time.Second, 10*time.Millisecond, b, 6, 2)...)
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(res.Streams))
	}
	if len(res.Loops) != 2 {
		t.Fatalf("loops = %d, want 2 (clean traffic in the gap blocks the merge)", len(res.Loops))
	}
}

func TestDistinctPacketsDistinctStreams(t *testing.T) {
	// Same flow, different IP IDs (and different payload seeds):
	// never replicas of each other.
	var recs []trace.Record
	a := mkPkt("192.0.2.1", "203.0.113.5", 51, 64, 13)
	b := mkPkt("192.0.2.1", "203.0.113.5", 52, 64, 14)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, a, 5, 2)...)
	recs = append(recs, replicaRun(t, time.Second+3*time.Millisecond, 10*time.Millisecond, b, 5, 2)...)
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(res.Streams))
	}
	for _, s := range res.Streams {
		if s.Count() != 5 {
			t.Errorf("stream %d has %d replicas, want 5", s.ID, s.Count())
		}
	}
}

func TestRetransmissionStartsNewStream(t *testing.T) {
	// A genuine TCP retransmission reuses payload but gets a new IP
	// ID in real stacks; if a middlebox re-emitted identical bytes
	// with a NON-decreasing TTL, the detector must not extend the old
	// stream.
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 61, 64, 15)
	var recs []trace.Record
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, pkt, 4, 2)...)
	// Reappearance at the original TTL.
	recs = append(recs, rec(t, 2*time.Second, pkt))
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(res.Streams))
	}
	if res.Streams[0].Count() != 4 {
		t.Errorf("stream length = %d, want 4 (reappearance must not join)", res.Streams[0].Count())
	}
}

func TestEscapedHeuristic(t *testing.T) {
	// Stream ending at TTL 40 with delta 2: the packet clearly did
	// not expire in the loop — it escaped when the loop healed.
	pkt := mkPkt("192.0.2.1", "203.0.113.5", 71, 64, 16)
	recs := replicaRun(t, time.Second, 10*time.Millisecond, pkt, 5, 2) // TTLs 64..56
	res := DetectRecords(recs, DefaultConfig())
	if len(res.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(res.Streams))
	}
	if !res.Streams[0].Escaped() {
		t.Errorf("stream ending at TTL %d should be classified escaped", res.Streams[0].LastTTL())
	}

	// Run the TTL down to (almost) nothing: the packet died inside.
	pkt2 := mkPkt("192.0.2.1", "203.0.113.6", 72, 8, 17)
	recs2 := replicaRun(t, time.Second, 10*time.Millisecond, pkt2, 10, 2) // TTLs 8,6,4,2
	res2 := DetectRecords(recs2, DefaultConfig())
	if len(res2.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(res2.Streams))
	}
	if res2.Streams[0].Escaped() {
		t.Errorf("stream ending at TTL %d should be classified expired", res2.Streams[0].LastTTL())
	}
}

func TestMembershipIndex(t *testing.T) {
	var recs []trace.Record
	loop := mkPkt("192.0.2.1", "203.0.113.5", 81, 64, 18)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, loop, 5, 2)...)
	recs = append(recs, rec(t, 10*time.Second, mkPkt("192.0.2.4", "198.51.100.1", 82, 60, 19)))
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	membership := res.Membership()
	if len(membership) != len(recs) {
		t.Fatalf("membership length = %d, want %d", len(membership), len(recs))
	}
	members := 0
	for _, m := range membership {
		if m >= 0 {
			members++
		}
	}
	if members != 5 {
		t.Errorf("members = %d, want 5", members)
	}
	if membership[len(recs)-1] != -1 {
		t.Errorf("clean packet marked as member")
	}
}

func TestSplitPersistence(t *testing.T) {
	mkLoop := func(start, end time.Duration) *Loop {
		return &Loop{Start: start, End: end}
	}
	res := &Result{Loops: []*Loop{
		mkLoop(1*time.Second, 3*time.Second),                               // short, early: transient
		mkLoop(10*time.Second, 9*time.Minute+50*time.Second),               // long, active at end: persistent
		mkLoop(9*time.Minute+30*time.Second, 9*time.Minute+55*time.Second), // active at end but short: transient
		mkLoop(2*time.Minute, 5*time.Minute),                               // long but healed mid-trace: transient
	}}
	split := res.SplitPersistence(10*time.Minute, time.Minute, time.Minute)
	if len(split.Persistent) != 1 {
		t.Fatalf("persistent = %d, want 1", len(split.Persistent))
	}
	if split.Persistent[0] != res.Loops[1] {
		t.Error("wrong loop classified persistent")
	}
	if len(split.Transient) != 3 {
		t.Errorf("transient = %d, want 3", len(split.Transient))
	}
}

func TestExtractLoopRecords(t *testing.T) {
	var recs []trace.Record
	loopPkt := mkPkt("192.0.2.1", "203.0.113.5", 91, 64, 30)
	recs = append(recs, replicaRun(t, time.Second, 10*time.Millisecond, loopPkt, 6, 2)...)
	// Context packet towards the same prefix shortly before the loop.
	recs = append(recs, rec(t, 900*time.Millisecond, mkPkt("192.0.2.2", "203.0.113.6", 92, 60, 31)))
	// Unrelated traffic.
	recs = append(recs, rec(t, time.Second, mkPkt("192.0.2.3", "198.51.100.1", 93, 60, 32)))
	sortRecords(recs)

	res := DetectRecords(recs, DefaultConfig())
	if len(res.Loops) != 1 {
		t.Fatalf("loops = %d", len(res.Loops))
	}

	extract := func(context time.Duration) []trace.Record {
		t.Helper()
		got, err := ExtractLoopSource(trace.NewSliceSource(trace.Meta{}, recs), res.Loops[0], context)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Without context: exactly the six replicas.
	got := extract(0)
	if len(got) != 6 {
		t.Fatalf("extracted %d records, want 6", len(got))
	}
	if err := trace.Validate(got); err != nil {
		t.Fatal(err)
	}

	// With context: also the same-prefix packet nearby, but never the
	// unrelated one.
	got = extract(500 * time.Millisecond)
	if len(got) != 7 {
		t.Fatalf("extracted %d records with context, want 7", len(got))
	}
	for _, r := range got {
		p, err := packet.Decode(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if p.IP.Dst[0] != 203 {
			t.Errorf("unrelated record extracted: dst %v", p.IP.Dst)
		}
	}
}

// TestBackwardsTimestampsNoPanic feeds captures in which 1 % of the
// records are stamped up to 5 s early. A backwards step used to let
// evict cut the window entry an open builder still pointed at, and
// flush then indexed before the window's start.
func TestBackwardsTimestampsNoPanic(t *testing.T) {
	cfg := DefaultConfig()
	engines := []struct {
		name string
		opts []Option
	}{{"workers1", []Option{WithWorkers(1)}}, {"workers3", []Option{WithWorkers(3)}}, {"streaming", []Option{WithStreaming(nil)}}}
	for seed := uint64(1); seed <= 40; seed++ {
		recs := randomTrace(seed, 20*time.Second, 2000, 8)
		rng := stats.NewRNG(seed + 1000)
		for i := range recs {
			if rng.Float64() < 0.01 {
				recs[i].Time -= time.Duration(rng.Int63n(int64(5 * time.Second)))
			}
		}
		for _, eng := range engines {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("seed %d, %s: panic: %v", seed, eng.name, p)
					}
				}()
				e, err := New(cfg, eng.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					e.Observe(r)
				}
				e.Finish()
			}()
		}
	}
}

// TestBindFlags: unset flags describe DefaultConfig exactly, and each
// flag moves its own field.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := cfg(); got != DefaultConfig() {
		t.Errorf("defaults = %+v, want %+v", got, DefaultConfig())
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	cfg = BindFlags(fs)
	if err := fs.Parse([]string{"-min-replicas", "4", "-ttl-delta", "3", "-prefix-bits", "16",
		"-merge-window", "2m", "-replica-gap", "5s", "-no-validate"}); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.MinReplicas, want.MinTTLDelta, want.PrefixBits = 4, 3, 16
	want.MergeWindow, want.MaxReplicaGap, want.ValidateSubnet = 2*time.Minute, 5*time.Second, false
	if got := cfg(); got != want {
		t.Errorf("parsed = %+v, want %+v", got, want)
	}
}

// TestPrefixCacheForgetsEvictedState: a prefix whose state is evicted
// and later needed again gets a live state, not the freed one its cache
// slot held — here 0.0.0.0/24, whose address equals a freed state's, and
// whose loops are both found.
func TestPrefixCacheForgetsEvictedState(t *testing.T) {
	cfg := DefaultConfig()
	later := 3 * (cfg.MaxReplicaGap + cfg.MergeWindow)
	var recs []trace.Record
	for _, at := range []time.Duration{time.Second, later} {
		recs = append(recs, replicaRun(t, at, 10*time.Millisecond, mkPkt("192.0.2.1", "0.0.0.5", 7, 60, 1), 6, 2)...)
	}
	for at := 2 * time.Second; at < later; at += cfg.MaxReplicaGap / 4 {
		recs = append(recs, rec(t, at, mkPkt("192.0.2.1", "203.0.113.5", uint16(at/time.Millisecond), 60, 2)))
	}
	sortRecords(recs)
	got := DetectRecords(recs, cfg)
	requireSameResult(t, "evicted and revisited prefix", got, NaiveDetectRecords(recs, cfg))
	if len(got.Loops) != 2 {
		t.Errorf("%d loops, want 2", len(got.Loops))
	}
}
