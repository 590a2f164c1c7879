package provenance

import (
	"encoding/json"
	"testing"
)

func TestNowMonotonic(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		cur := Now()
		if cur < prev {
			t.Fatalf("Now went backwards: %d then %d", prev, cur)
		}
		prev = cur
	}
}

func TestStampCopiesOnWrite(t *testing.T) {
	var r *Record
	r = r.Stamp(HopDetected, 100)
	if r == nil || r.DetectedNs != 100 {
		t.Fatalf("stamp on nil record: %+v", r)
	}
	r2 := r.Stamp(HopPublished, 200)
	if r2 == r {
		t.Fatal("Stamp mutated in place instead of copying")
	}
	if r.PublishedNs != 0 {
		t.Fatalf("original record mutated: %+v", r)
	}
	if r2.DetectedNs != 100 || r2.PublishedNs != 200 {
		t.Fatalf("stamped record wrong: %+v", r2)
	}
	// The ring/journal/webhook copies diverge without aliasing.
	j := r2.Stamp(HopJournaled, 300)
	w := r2.Stamp(HopWebhookSent, 400)
	if j.WebhookSentNs != 0 || w.JournaledNs != 0 {
		t.Fatalf("sibling stamps aliased: journal=%+v webhook=%+v", j, w)
	}
}

func TestStampNoopPaths(t *testing.T) {
	var r *Record
	if got := r.Stamp(HopDetected, 0); got != nil {
		t.Fatalf("zero-ns stamp allocated a record: %+v", got)
	}
	if got := r.Stamp("bogus", 5); got != nil {
		t.Fatalf("unknown hop allocated a record: %+v", got)
	}
	live := &Record{DetectedNs: 1}
	if got := live.Stamp("bogus", 5); got != live {
		t.Fatal("unknown hop did not return the receiver")
	}
}

// TestStampNoopAllocationFree pins the disabled-provenance contract:
// stamping nothing onto a nil record costs no allocations, the same
// discipline internal/obs holds for nil metric sinks.
func TestStampNoopAllocationFree(t *testing.T) {
	var r *Record
	allocs := testing.AllocsPerRun(1000, func() {
		r = r.Stamp(HopDetected, 0)
		r = r.Stamp(HopPublished, 0)
		r = r.Stamp(HopClustered, 0)
	})
	if allocs != 0 {
		t.Fatalf("no-op stamp path allocates %.1f times per run, want 0", allocs)
	}
	if r != nil {
		t.Fatal("no-op stamps materialized a record")
	}
}

func TestLatencies(t *testing.T) {
	r := (&Record{}).
		Stamp(HopDetected, 1000).
		Stamp(HopPublished, 1500).
		Stamp(HopJournaled, 1900).
		Stamp(HopIngested, 5000).
		Stamp(HopClustered, 5000)
	got := map[string]SegmentLatency{}
	for _, l := range Latencies(r) {
		got[l.Segment] = l
	}
	want := map[string]int64{
		SegDetectPublish:  500,
		segPublishJournal: 400,
		segPublishIngest:  3500,
		segIngestCluster:  0,
		SegDetectCluster:  4000,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d segments %v, want %d", len(got), got, len(want))
	}
	for seg, ns := range want {
		l, ok := got[seg]
		if !ok || l.Ns != ns || l.Clamped {
			t.Errorf("segment %s = %+v, want %d ns unclamped", seg, l, ns)
		}
	}
	// No webhook stamp: the push-only segments must be absent.
	if _, ok := got[SegPublishSend]; ok {
		t.Error("publish_send present without a webhook_sent stamp")
	}
}

func TestLatenciesClampNegative(t *testing.T) {
	// Vantage clock ahead of the aggregator: published after ingested.
	r := (&Record{}).
		Stamp(HopDetected, 9000).
		Stamp(HopPublished, 9500).
		Stamp(HopIngested, 9400).
		Stamp(HopClustered, 9400)
	for _, l := range Latencies(r) {
		switch l.Segment {
		case segPublishIngest:
			if !l.Clamped || l.Ns != 0 {
				t.Errorf("publish_ingest = %+v, want clamped zero", l)
			}
			if !l.CrossProcess {
				t.Error("publish_ingest not marked cross-process")
			}
		case SegDetectPublish:
			if l.Clamped || l.Ns != 500 {
				t.Errorf("detect_publish = %+v, want 500 unclamped", l)
			}
		}
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := &Record{DetectedNs: 1, PublishedNs: 2, JournaledNs: 3,
		WebhookSentNs: 4, IngestedNs: 5, ClusteredNs: 6}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *r {
		t.Fatalf("round trip changed the record: %+v -> %+v", *r, back)
	}
	// Zero hops stay off the wire (events without provenance, pulled
	// events without webhook stamps) so old consumers see nothing new.
	data, _ = json.Marshal(&Record{DetectedNs: 7})
	if string(data) != `{"detectedNs":7}` {
		t.Fatalf("sparse record marshaled as %s", data)
	}
}

func TestSegmentRank(t *testing.T) {
	for i, s := range Segments {
		if SegmentRank(s) != i {
			t.Errorf("SegmentRank(%s) = %d, want %d", s, SegmentRank(s), i)
		}
	}
	if SegmentRank("bogus") != len(Segments) {
		t.Error("unknown segment does not sort last")
	}
}
