package agg

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/obs"
	"loopscope/pkg/loopscope"
)

// pinnedNow returns a frozen clock so window placement, arrival
// stamps, and stats documents are reproducible.
func pinnedNow() func() time.Time {
	base := time.Unix(1_700_000_000, 0)
	return func() time.Time { return base }
}

// mkEvent builds a loop event as a vantage's daemon would publish it.
func mkEvent(vantage, source, prefix, id string, startNs, endNs int64, ttlDelta int) loopscope.Event {
	return loopscope.Event{
		ID:          id,
		Source:      source,
		Vantage:     vantage,
		Prefix:      prefix,
		StartNs:     startNs,
		EndNs:       endNs,
		DurationNs:  endNs - startNs,
		Streams:     2,
		Replicas:    10,
		TTLDelta:    ttlDelta,
		EmittedAtNs: endNs,
	}
}

func obs1(vantage, prefix, id string, startNs, endNs int64, ttlDelta int) Observation {
	return Observation{Vantage: vantage, Transport: TransportPush,
		Event: mkEvent(vantage, "tap", prefix, id, startNs, endNs, ttlDelta)}
}

func newTestAgg(t *testing.T, cfg Config) *Aggregator {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = pinnedNow()
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// sec converts seconds on the trace clock to nanoseconds.
func sec(s int64) int64 { return s * int64(time.Second) }

// Three vantages observing one loop (same /24, same TTL delta,
// overlapping windows) must collapse into a single fleet loop with
// all three attributions, and redelivery must be suppressed.
func TestCrossVantageDedup(t *testing.T) {
	a := newTestAgg(t, Config{})
	observations := []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3),
		obs1("bb3", "10.1.2.0/24", "e3", sec(9), sec(38), 3),
	}
	for _, o := range observations {
		accepted, err := a.Ingest(o)
		if err != nil || !accepted {
			t.Fatalf("Ingest(%s) = %v, %v; want accepted", o.Vantage, accepted, err)
		}
	}
	// Redeliver each observation once (the at-least-once transports do).
	for _, o := range observations {
		accepted, err := a.Ingest(o)
		if err != nil || accepted {
			t.Fatalf("redelivered Ingest(%s) = %v, %v; want duplicate", o.Vantage, accepted, err)
		}
	}
	loops := a.FleetLoops()
	if len(loops) != 1 {
		t.Fatalf("FleetLoops: got %d clusters, want 1: %+v", len(loops), loops)
	}
	fl := loops[0]
	if want := []string{"bb1", "bb2", "bb3"}; !reflect.DeepEqual(fl.Vantages, want) {
		t.Errorf("vantages = %v, want %v", fl.Vantages, want)
	}
	if fl.Observations != 3 || len(fl.Evidence) != 3 {
		t.Errorf("observations = %d, evidence = %d, want 3/3", fl.Observations, len(fl.Evidence))
	}
	if fl.StartNs != sec(9) || fl.EndNs != sec(41) {
		t.Errorf("window = [%d, %d], want union [%d, %d]", fl.StartNs, fl.EndNs, sec(9), sec(41))
	}
	if fl.Prefix != "10.1.2.0/24" || fl.TTLDelta != 3 {
		t.Errorf("key = %s/%d, want 10.1.2.0/24 delta 3", fl.Prefix, fl.TTLDelta)
	}
}

// Observations that differ in aggregated prefix, TTL delta, or
// disjoint-in-time windows stay separate clusters.
func TestDistinctLoopsStaySeparate(t *testing.T) {
	a := newTestAgg(t, Config{})
	for _, o := range []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb2", "10.9.9.0/24", "e2", sec(10), sec(40), 3),   // other prefix
		obs1("bb3", "10.1.2.0/24", "e3", sec(10), sec(40), 7),   // other cycle length
		obs1("bb1", "10.1.2.0/24", "e4", sec(500), sec(520), 3), // same loop shape, much later
	} {
		if _, err := a.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if loops := a.FleetLoops(); len(loops) != 4 {
		t.Fatalf("got %d clusters, want 4: %+v", len(loops), loops)
	}
}

// Host-granular and net-granular reports of the same destination
// correlate once aggregated to /24.
func TestPrefixAggregation(t *testing.T) {
	a := newTestAgg(t, Config{})
	if _, err := a.Ingest(obs1("bb1", "10.1.2.55/32", "e1", sec(10), sec(40), 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(obs1("bb2", "10.1.2.0/24", "e2", sec(11), sec(39), 3)); err != nil {
		t.Fatal(err)
	}
	loops := a.FleetLoops()
	if len(loops) != 1 {
		t.Fatalf("got %d clusters, want 1", len(loops))
	}
	if loops[0].Prefix != "10.1.2.0/24" {
		t.Errorf("aggregated prefix = %q, want 10.1.2.0/24", loops[0].Prefix)
	}
	// The evidence keeps the original granularity.
	if loops[0].Evidence[0].Prefix != "10.1.2.55/32" {
		t.Errorf("evidence prefix = %q, want the vantage's own 10.1.2.55/32", loops[0].Evidence[0].Prefix)
	}
}

// Restarting from the journal must reproduce the exact fleet loop set
// and fleet statistics — the crash-consistency acceptance criterion.
func TestJournalReplayReproducesState(t *testing.T) {
	dir := t.TempDir()
	journal := dir + "/fleet.jsonl"
	a1 := newTestAgg(t, Config{Journal: journal})
	seed := []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3),
		obs1("bb1", "10.9.9.0/24", "e3", sec(100), sec(130), 5),
		obs1("bb3", "10.1.2.0/24", "e4", sec(9), sec(38), 3),
		obs1("bb2", "10.9.9.0/24", "e5", sec(101), sec(131), 5),
	}
	for _, o := range seed {
		if _, err := a1.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	wantLoops := a1.FleetLoops()
	wantStats := statsJSON(t, a1)

	// No Close: the append handle stays open, exactly like kill -9.
	a2 := newTestAgg(t, Config{Journal: journal})
	if gotLoops := a2.FleetLoops(); !reflect.DeepEqual(gotLoops, wantLoops) {
		t.Errorf("replayed fleet loops differ:\n got %+v\nwant %+v", gotLoops, wantLoops)
	}
	if gotStats := statsJSON(t, a2); gotStats != wantStats {
		t.Errorf("replayed fleet stats differ:\n got %s\nwant %s", gotStats, wantStats)
	}
	// Replay also re-arms dedup: redelivering a journaled observation
	// is suppressed.
	if accepted, err := a2.Ingest(seed[0]); err != nil || accepted {
		t.Errorf("post-replay redelivery = %v, %v; want duplicate", accepted, err)
	}
}

func statsJSON(t *testing.T, a *Aggregator) string {
	t.Helper()
	st, err := a.statsDoc(analytics.Query{})
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// A torn trailing line (kill -9 mid-append) is quarantined, and the
// complete lines replay.
func TestTornJournalTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	journal := dir + "/fleet.jsonl"
	good, err := json.Marshal(obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, append(good, "\n{\"vantage\":\"bb2\",\"ev"...), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a := newTestAgg(t, Config{Journal: journal, Metrics: reg})
	if got := len(a.FleetLoops()); got != 1 {
		t.Fatalf("got %d fleet loops after torn-tail repair, want 1", got)
	}
	if _, err := os.Stat(journal + ".quarantine"); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
	if got := reg.Counter(obs.LabelMetric("loopscope_serve_torn_repairs_total", "file", "agg-journal")).Value(); got != 1 {
		t.Errorf("torn repair counter = %d, want 1", got)
	}
}

// A corrupt complete line costs that observation, not the journal.
func TestJournalBadLineSkipped(t *testing.T) {
	dir := t.TempDir()
	journal := dir + "/fleet.jsonl"
	good, err := json.Marshal(obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3))
	if err != nil {
		t.Fatal(err)
	}
	body := "not json at all\n" + string(good) + "\n{\"vantage\":\"\",\"event\":{}}\n"
	if err := os.WriteFile(journal, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	a := newTestAgg(t, Config{Journal: journal})
	if got := len(a.FleetLoops()); got != 1 {
		t.Fatalf("got %d fleet loops, want 1", got)
	}
}

// One over-long garbage line (a disk that lied, a stray binary write)
// costs one skipped line. It must not stop the aggregator from
// starting, and it must not be read into memory whole.
func TestJournalOverlongLineSkipped(t *testing.T) {
	journal := t.TempDir() + "/fleet.jsonl"
	var body []byte
	for _, o := range []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb1", "10.9.9.0/24", "e2", sec(100), sec(130), 5),
	} {
		line, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) == 0 {
			line = append(line, '\n')
			line = append(line, bytes.Repeat([]byte{'x'}, 2<<20)...)
		}
		body = append(append(body, line...), '\n')
	}
	if err := os.WriteFile(journal, body, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	a, err := New(Config{Journal: journal, Metrics: reg, Now: pinnedNow()})
	if err != nil {
		t.Fatalf("New refused to start on one over-long line: %v", err)
	}
	defer a.Close()
	if got := len(a.FleetLoops()); got != 2 {
		t.Errorf("replayed %d fleet loops, want 2", got)
	}
	if got := reg.Counter(obs.LabelMetric(obs.MetricJournalSkipped, "file", "agg-journal")).Value(); got != 1 {
		t.Errorf("skipped-line counter = %d, want 1", got)
	}
}

// withIdents gives an observation an identity sketch.
func withIdents(o Observation, ids ...uint64) Observation {
	o.Event.Idents = ids
	return o
}

// Neither the fleet statistics nor the fleet loops may depend on the
// order observations arrive. The per-vantage sketches merge
// associatively and commutatively in sorted vantage order, and a fleet
// loop is a connected component of the observation set, so every one
// of the 720 arrival orders of six observations must render the
// identical stats and fleet loops documents. The set holds a chain
// without identities (a is within 5 s of b and b of c, but a and c are
// 10 s apart: one loop only if the relation is closed transitively,
// whichever arrives last) and identity-carrying observations: d and e
// share a packet though e's clock runs 30 s behind, and f overlaps d
// in time but shares none of its packets.
func TestFleetStatsArrivalOrderIndependent(t *testing.T) {
	base := []Observation{
		obs1("bb1", "10.1.2.0/24", "a", sec(0), sec(10), 3),
		obs1("bb2", "10.1.2.0/24", "b", sec(12), sec(18), 3),
		obs1("bb3", "10.1.2.0/24", "c", sec(20), sec(30), 3),
		withIdents(obs1("bb1", "10.9.9.0/24", "d", sec(100), sec(130), 5), 11, 12),
		withIdents(obs1("bb2", "10.9.9.0/24", "e", sec(131), sec(160), 5), 12, 13),
		withIdents(obs1("bb3", "10.9.9.0/24", "f", sec(101), sec(129), 5), 14),
	}
	var wantStats, wantLoops string
	orders := 0
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			orders++
			a := newTestAgg(t, Config{})
			for _, idx := range order {
				if _, err := a.Ingest(base[idx]); err != nil {
					t.Fatal(err)
				}
			}
			loops := a.FleetLoops()
			doc, err := json.Marshal(loops)
			if err != nil {
				t.Fatal(err)
			}
			if got := statsJSON(t, a); wantStats == "" {
				wantStats = got
			} else if got != wantStats {
				t.Fatalf("order %v renders different fleet stats:\n got %s\nwant %s", order, got, wantStats)
			}
			if wantLoops == "" {
				wantLoops = string(doc)
				if len(loops) != 3 || loops[0].Observations != 3 || loops[1].Observations != 2 || loops[2].Observations != 1 {
					t.Fatalf("order %v: fleet loops %s, want the a-b-c chain, d+e and f", order, doc)
				}
			} else if string(doc) != wantLoops {
				t.Fatalf("order %v renders different fleet loops:\n got %s\nwant %s", order, doc, wantLoops)
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4, 5}, 0)
	if orders != 720 {
		t.Fatalf("checked %d orders, want 720", orders)
	}
}

// Two loops on one /24 with the same TTL delta and overlapping windows
// stay two fleet loops when their vantages caught no packet in common.
func TestDisjointIdentsStaySeparate(t *testing.T) {
	a := newTestAgg(t, Config{})
	a.Ingest(withIdents(obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3), 1, 2, 3))
	a.Ingest(withIdents(obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3), 4, 5, 6))
	if loops := a.FleetLoops(); len(loops) != 2 {
		t.Fatalf("got %d fleet loops, want 2: %+v", len(loops), loops)
	}
}

// A vantage whose trace clock is 30 s off still joins the loop it saw:
// the packets it shares with the other vantage decide, not the clock.
func TestClockSkewedVantageJoins(t *testing.T) {
	a := newTestAgg(t, Config{})
	a.Ingest(withIdents(obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(20), 3), 1, 2, 3))
	a.Ingest(withIdents(obs1("bb2", "10.1.2.0/24", "e2", sec(40), sec(50), 3), 3, 7))
	loops := a.FleetLoops()
	if len(loops) != 1 || !reflect.DeepEqual(loops[0].Vantages, []string{"bb1", "bb2"}) {
		t.Fatalf("fleet loops = %+v, want one loop seen by bb1 and bb2", loops)
	}
	if fl := loops[0]; fl.StartNs != sec(10) || fl.EndNs != sec(50) {
		t.Errorf("window = [%d, %d], want the union [%d, %d]", fl.StartNs, fl.EndNs, sec(10), sec(50))
	}
}

// A drain-truncated emission and the completed emission a resumed
// daemon publishes later are one loop, though the partial sketch
// misses the full one's smallest identities and the partial first
// stream's modal TTL decrement differs (a replica the tap missed
// counts double in a short stream).
func TestTruncatedJoinsCompleted(t *testing.T) {
	a := newTestAgg(t, Config{})
	a.Ingest(withIdents(obs1("bb1", "10.1.2.0/24", "00c0ffee00c0ffee-t4a817c800", sec(10), sec(20), 6), 50, 60))
	a.Ingest(withIdents(obs1("bb1", "10.1.2.0/24", "00c0ffee00c0ffee", sec(10), sec(40), 3), 1, 2, 3, 4, 5, 6, 7, 8))
	loops := a.FleetLoops()
	if len(loops) != 1 || loops[0].Observations != 2 {
		t.Fatalf("fleet loops = %+v, want one loop of both emissions", loops)
	}
	// An ID that only looks truncated joins nothing.
	a.Ingest(withIdents(obs1("bb1", "10.1.2.0/24", "00c0ffee00c0ffee-tz", sec(10), sec(20), 6), 70))
	if got := len(a.FleetLoops()); got != 2 {
		t.Errorf("got %d fleet loops after an unrelated -t ID, want 2", got)
	}
}

// An ingested sketch is bounded before it is journaled: sorted,
// deduplicated, the MaxIdents smallest kept, whatever the body brought.
func TestIngestBoundsIdents(t *testing.T) {
	journal := t.TempDir() + "/fleet.jsonl"
	a := newTestAgg(t, Config{Journal: journal})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	ev := mkEvent("bb1", "tap", "10.1.2.0/24", "big", sec(1), sec(30), 3)
	for i := 50_000; i > 0; i-- {
		ev.Idents = append(ev.Idents, uint64(i%25_000))
	}
	body, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a %d-byte body of 50 000 identities: status %d, want 200", len(body), resp.StatusCode)
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	if got := a.FleetLoops()[0].Evidence[0].Idents; !reflect.DeepEqual(got, want) {
		t.Errorf("evidence idents = %v, want %v", got, want)
	}
	replay := newTestAgg(t, Config{Journal: journal})
	if got := replay.FleetLoops()[0].Evidence[0].Idents; !reflect.DeepEqual(got, want) {
		t.Errorf("journaled idents replay as %v, want %v", got, want)
	}
}

// Pull cursors survive the atomic checkpoint; a corrupt checkpoint is
// quarantined and polling starts over (safe: dedup absorbs refetch).
func TestCursorCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cp := dir + "/cursors.json"
	a1 := newTestAgg(t, Config{Checkpoint: cp})
	a1.setCursor("bb1", 17)
	a1.setCursor("bb2", 5)
	if err := a1.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	a2 := newTestAgg(t, Config{Checkpoint: cp})
	if got := a2.cursorNow("bb1"); got != 17 {
		t.Errorf("bb1 cursor = %d, want 17", got)
	}
	if got := a2.cursorNow("bb2"); got != 5 {
		t.Errorf("bb2 cursor = %d, want 5", got)
	}

	if err := os.WriteFile(cp, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	a3 := newTestAgg(t, Config{Checkpoint: cp})
	if got := a3.cursorNow("bb1"); got != 0 {
		t.Errorf("cursor from corrupt checkpoint = %d, want 0", got)
	}
	if _, err := os.Stat(cp + ".corrupt"); err != nil {
		t.Errorf("corrupt sidecar missing: %v", err)
	}
}

// A cursor checkpoint written before save/load moved onto
// internal/durable loads unchanged, and saving the same cursors at the
// same instant reproduces it byte for byte.
func TestParentCursorFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_cursors.json")
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir() + "/cursors.json"
	if err := os.WriteFile(cp, want, 0o644); err != nil {
		t.Fatal(err)
	}
	a := newTestAgg(t, Config{Checkpoint: cp, Now: func() time.Time { return time.Unix(1_700_000_123, 456) }})
	if a.cursorNow("bb1") != 17 || a.cursorNow("bb2") != 5 {
		t.Fatalf("cursors = %d, %d; want 17, 5", a.cursorNow("bb1"), a.cursorNow("bb2"))
	}
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(cp); !bytes.Equal(got, want) {
		t.Errorf("cursor checkpoint format changed:\n got %s\nwant %s", got, want)
	}
}

// The vantage table aggregates per-daemon standing.
func TestVantageTable(t *testing.T) {
	a := newTestAgg(t, Config{})
	a.Ingest(obs1("bb2", "10.1.2.0/24", "e1", sec(10), sec(40), 3))
	a.Ingest(obs1("bb1", "10.1.2.0/24", "e2", sec(12), sec(41), 3))
	a.Ingest(obs1("bb1", "10.1.2.0/24", "e2", sec(12), sec(41), 3)) // dup
	vs := a.vantageList()
	if len(vs) != 2 || vs[0].Name != "bb1" || vs[1].Name != "bb2" {
		t.Fatalf("vantages = %+v, want sorted [bb1 bb2]", vs)
	}
	if vs[0].Observations != 1 || vs[0].Duplicates != 1 {
		t.Errorf("bb1 = %d obs / %d dups, want 1/1", vs[0].Observations, vs[0].Duplicates)
	}
	if got := vs[0].Transports; len(got) != 1 || got[0] != TransportPush {
		t.Errorf("bb1 transports = %v, want [push]", got)
	}
}

// Observations missing identity are rejected, and the vantage
// attribution falls back event vantage -> event source.
func TestIngestValidation(t *testing.T) {
	a := newTestAgg(t, Config{})
	if _, err := a.Ingest(Observation{Event: loopscope.Event{Prefix: "10.0.0.0/24"}}); err == nil {
		t.Error("want error for observation without vantage or ID")
	}
	ev := mkEvent("", "tap7", "10.1.2.0/24", "e1", sec(1), sec(2), 3)
	if _, err := a.Ingest(Observation{Event: ev}); err != nil {
		t.Fatalf("source fallback rejected: %v", err)
	}
	if vs := a.vantageList(); len(vs) != 1 || vs[0].Name != "tap7" {
		t.Errorf("vantages = %+v, want attribution to source tap7", vs)
	}
}
