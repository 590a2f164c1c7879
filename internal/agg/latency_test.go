package agg

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
	"loopscope/pkg/loopscope"
)

// obsProv builds an observation whose event carries daemon-side
// provenance stamps offset back from the pinned ingest clock, so the
// cross-process segments come out positive unless the test says
// otherwise.
func obsProv(vantage, prefix, id string, startNs, endNs int64, publishedAt time.Time) Observation {
	o := obs1(vantage, prefix, id, startNs, endNs, 3)
	p := publishedAt.UnixNano()
	o.Event.Prov = &loopscope.Provenance{
		DetectedNs:  p - int64(2*time.Millisecond),
		PublishedNs: p,
		JournaledNs: p + int64(time.Millisecond),
	}
	return o
}

func latencyJSON(t *testing.T, a *Aggregator) string {
	t.Helper()
	buf, err := json.Marshal(a.Latency("", ""))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestProvenanceCloseOut pins the close-out contract: the aggregator
// stamps ingested and clustered with the journaled arrival stamp, the
// evidence rows carry the completed record, the latency table gains
// the cross-process segments, and the vantage listing shows a skew
// estimate.
func TestProvenanceCloseOut(t *testing.T) {
	now := pinnedNow()
	a := newTestAgg(t, Config{Now: now})
	o := obsProv("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), now().Add(-40*time.Millisecond))
	if _, err := a.Ingest(o); err != nil {
		t.Fatal(err)
	}
	loops := a.FleetLoops()
	if len(loops) != 1 || len(loops[0].Evidence) != 1 {
		t.Fatalf("unexpected fleet state: %+v", loops)
	}
	p := loops[0].Evidence[0].Prov
	if p == nil {
		t.Fatal("evidence lost the provenance record")
	}
	wantArrival := now().UnixNano()
	if p.IngestedNs != wantArrival || p.ClusteredNs != wantArrival {
		t.Errorf("close-out stamps = %d/%d, want both %d", p.IngestedNs, p.ClusteredNs, wantArrival)
	}
	if p.PublishedNs != o.Event.Prov.PublishedNs {
		t.Errorf("daemon-side stamps rewritten: %+v", p)
	}
	if o.Event.Prov.IngestedNs != 0 {
		t.Error("close-out mutated the caller's record (aliasing)")
	}

	st := a.Latency("", "")
	got := map[string]uint64{}
	for _, row := range st.Segments {
		if row.Vantage != "bb1" {
			t.Errorf("unexpected vantage row %+v", row)
		}
		got[row.Segment] = row.Count
	}
	for _, seg := range []string{
		provenance.SegDetectPublish, provenance.SegPublishJournal,
		provenance.SegPublishIngest, provenance.SegIngestCluster, provenance.SegDetectCluster,
	} {
		if got[seg] != 1 {
			t.Errorf("segment %s count = %d, want 1 (rows: %v)", seg, got[seg], got)
		}
	}
	if _, ok := got[provenance.SegSendIngest]; ok {
		t.Error("send_ingest present without a webhook stamp")
	}

	vs := a.Vantages()
	if len(vs) != 1 || vs[0].SkewSamples != 1 {
		t.Fatalf("vantage skew not surfaced: %+v", vs)
	}
	if want := int64(40 * time.Millisecond); vs[0].SkewNs != want {
		t.Errorf("skew estimate = %d, want %d (transport delta)", vs[0].SkewNs, want)
	}

	// The exemplar ID is the event ID — the daemon-side trail handle.
	for _, row := range st.Segments {
		if len(row.Exemplars) != 1 || row.Exemplars[0].EventID != "e1" {
			t.Errorf("segment %s exemplars = %+v, want [e1]", row.Segment, row.Exemplars)
		}
	}
}

// TestProvenanceSkewClampedAndCounted is the satellite fix: a vantage
// whose clock runs ahead of the aggregator produces negative
// cross-process deltas, which must be clamped out of the sketches,
// counted in loopscope_provenance_skew_total, and reflected as a
// negative skew estimate — never ingested as bogus near-zero
// latencies.
func TestProvenanceSkewClampedAndCounted(t *testing.T) {
	now := pinnedNow()
	reg := obs.NewRegistry()
	a := newTestAgg(t, Config{Now: now, Metrics: reg})
	// Published "in the future": 300ms ahead of the aggregator's clock.
	o := obsProv("bb9", "10.1.2.0/24", "e1", sec(10), sec(40), now().Add(300*time.Millisecond))
	if _, err := a.Ingest(o); err != nil {
		t.Fatal(err)
	}
	for _, row := range a.Latency("", "").Segments {
		switch row.Segment {
		case provenance.SegPublishIngest, provenance.SegDetectCluster:
			if row.Count != 0 || row.Clamped != 1 {
				t.Errorf("%s: count=%d clamped=%d, want 0/1", row.Segment, row.Count, row.Clamped)
			}
			if len(row.Exemplars) != 0 {
				t.Errorf("%s: clamped observation produced exemplars %+v", row.Segment, row.Exemplars)
			}
		case provenance.SegDetectPublish, provenance.SegPublishJournal:
			if row.Count != 1 || row.Clamped != 0 {
				t.Errorf("%s: same-process segment corrupted: count=%d clamped=%d", row.Segment, row.Count, row.Clamped)
			}
		}
	}
	if v := reg.Counter(obs.LabelMetric(obs.MetricProvenanceSkewTotal, "vantage", "bb9")).Value(); v != 2 {
		t.Errorf("skew counter = %d, want 2 (publish_ingest + detect_cluster)", v)
	}
	vs := a.Vantages()
	if len(vs) != 1 || vs[0].SkewNs >= 0 || vs[0].SkewSamples != 1 {
		t.Errorf("vantage skew = %+v, want negative estimate with 1 sample", vs)
	}
}

// TestLatencyReplayByteIdentical is the acceptance criterion for the
// tentpole's durability story: an aggregator rebuilt from the journal
// after kill -9 (no Close) must serve a byte-identical latency
// document and the same skew estimates — nothing in the close-out may
// read a clock.
func TestLatencyReplayByteIdentical(t *testing.T) {
	now := pinnedNow()
	dir := t.TempDir()
	journal := dir + "/fleet.jsonl"
	a1 := newTestAgg(t, Config{Journal: journal, Now: now})
	for i, o := range []Observation{
		obsProv("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), now().Add(-40*time.Millisecond)),
		obsProv("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), now().Add(-70*time.Millisecond)),
		obsProv("bb2", "10.9.9.0/24", "e3", sec(100), sec(130), now().Add(90*time.Millisecond)), // skewed
		obsProv("bb1", "10.9.9.0/24", "e4", sec(101), sec(131), now().Add(-25*time.Millisecond)),
	} {
		if _, err := a1.Ingest(o); err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
	}
	want := latencyJSON(t, a1)
	wantVantages, _ := json.Marshal(a1.Vantages())

	// No Close — the journal handle is abandoned, exactly like kill -9.
	// The replayed aggregator gets a *different* (advanced) clock to
	// prove the close-out never reads it.
	later := func() time.Time { return pinnedNow()().Add(time.Hour) }
	a2 := newTestAgg(t, Config{Journal: journal, Now: later})
	if got := latencyJSON(t, a2); got != want {
		t.Errorf("replayed latency document differs:\n got %s\nwant %s", got, want)
	}
	gotVantages, _ := json.Marshal(a2.Vantages())
	// The vantage table includes render-time lag, which legitimately
	// depends on the clock; compare only the skew fields.
	var w, g []VantageInfo
	json.Unmarshal(wantVantages, &w)
	json.Unmarshal(gotVantages, &g)
	if len(w) != len(g) {
		t.Fatalf("vantage tables differ in size: %d vs %d", len(w), len(g))
	}
	for i := range w {
		if w[i].SkewNs != g[i].SkewNs || w[i].SkewSamples != g[i].SkewSamples {
			t.Errorf("vantage %s skew differs after replay: %d/%d vs %d/%d",
				w[i].Name, w[i].SkewNs, w[i].SkewSamples, g[i].SkewNs, g[i].SkewSamples)
		}
	}
}

// TestProvenanceAbsentEventsStillCluster guards the mixed-fleet path:
// events from pre-provenance daemons (no prov field) must cluster
// normally and simply not feed the latency table.
func TestProvenanceAbsentEventsStillCluster(t *testing.T) {
	a := newTestAgg(t, Config{})
	if _, err := a.Ingest(obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3)); err != nil {
		t.Fatal(err)
	}
	if got := len(a.FleetLoops()); got != 1 {
		t.Fatalf("got %d fleet loops, want 1", got)
	}
	if st := a.Latency("", ""); len(st.Segments) != 0 {
		t.Fatalf("latency table fed by a prov-less event: %+v", st.Segments)
	}
}

// TestStatsReplayKeepsWindows: loops ingested at t0 count in the
// windows of t0, not of the restart that replays them from the
// journal. Two days on, the 5-minute window holds none of them, before
// and after a restart, while the all-time view still holds all five.
func TestStatsReplayKeepsWindows(t *testing.T) {
	journal := t.TempDir() + "/fleet.jsonl"
	t0 := time.Unix(1_700_000_000, 0)
	clock := t0
	now := func() time.Time { return clock }
	a1 := newTestAgg(t, Config{Journal: journal, Now: now})
	for i := 0; i < 5; i++ {
		if _, err := a1.Ingest(obs1("bb1", fmt.Sprintf("10.1.%d.0/24", i), fmt.Sprintf("e%d", i), sec(10), sec(40), 3)); err != nil {
			t.Fatal(err)
		}
	}
	loops := func(a *Aggregator, window time.Duration) int {
		t.Helper()
		st, err := a.Stats(analytics.Query{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		return int(st.Loops)
	}
	if got := loops(a1, 5*time.Minute); got != 5 {
		t.Fatalf("5-minute window at ingest holds %d loops, want 5", got)
	}
	clock = t0.Add(48 * time.Hour)
	if got := loops(a1, 5*time.Minute); got != 0 {
		t.Fatalf("5-minute window two days on holds %d loops, want 0", got)
	}
	a1.Close()

	a2 := newTestAgg(t, Config{Journal: journal, Now: now})
	if got := loops(a2, 5*time.Minute); got != 0 {
		t.Errorf("after the restart, the 5-minute window holds %d loops, want 0", got)
	}
	if got := loops(a2, 0); got != 5 {
		t.Errorf("after the restart, the all-time view holds %d loops, want 5", got)
	}
}
