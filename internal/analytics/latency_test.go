package analytics

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"loopscope/internal/obs/provenance"
	"loopscope/pkg/loopscope"
)

func TestLatencyStoreOrderIndependent(t *testing.T) {
	type ob struct {
		seg, vantage, id string
		ns               int64
		clamped          bool
	}
	var obs []ob
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		obs = append(obs, ob{
			seg:     provenance.Segments[i%len(provenance.Segments)],
			vantage: fmt.Sprintf("bb%d", i%3),
			id:      fmt.Sprintf("ev-%04d", i),
			ns:      rng.Int63n(5_000_000),
			clamped: i%17 == 0,
		})
	}
	a, b := NewLatencyStore(), NewLatencyStore()
	for _, o := range obs {
		a.Observe(o.seg, o.vantage, o.id, o.ns, o.clamped)
	}
	perm := rng.Perm(len(obs))
	for _, i := range perm {
		o := obs[i]
		b.Observe(o.seg, o.vantage, o.id, o.ns, o.clamped)
	}
	da, _ := json.Marshal(a.Snapshot("", ""))
	db, _ := json.Marshal(b.Snapshot("", ""))
	if string(da) != string(db) {
		t.Fatalf("snapshot depends on arrival order:\n%s\n%s", da, db)
	}
}

func TestLatencyStoreClampedKeptOutOfSketch(t *testing.T) {
	s := NewLatencyStore()
	s.Observe("publish_ingest", "bb1", "ev-1", 500, false)
	s.Observe("publish_ingest", "bb1", "ev-2", 0, true)
	s.Observe("publish_ingest", "bb1", "ev-3", 0, true)
	st := s.Snapshot("", "")
	if len(st.Segments) != 1 {
		t.Fatalf("got %d rows, want 1", len(st.Segments))
	}
	row := st.Segments[0]
	if row.Count != 1 {
		t.Errorf("clamped observations leaked into the sketch: count=%d", row.Count)
	}
	if row.Clamped != 2 {
		t.Errorf("clamped=%d, want 2", row.Clamped)
	}
	if len(row.Exemplars) != 1 || row.Exemplars[0].EventID != "ev-1" {
		t.Errorf("exemplars=%+v, want just ev-1", row.Exemplars)
	}
}

func TestLatencyStoreExemplarsDeterministicTopK(t *testing.T) {
	s := NewLatencyStore()
	// More observations than the cap, with a tie at the cut line.
	for i, ns := range []int64{10, 50, 50, 40, 30, 20, 50} {
		s.Observe(provenance.SegDetectCluster, "bb1", fmt.Sprintf("ev-%d", i), ns, false)
	}
	row := s.Snapshot("", "").Segments[0]
	if len(row.Exemplars) != latencyExemplarCap {
		t.Fatalf("kept %d exemplars, want %d", len(row.Exemplars), latencyExemplarCap)
	}
	// Slowest first; the three 50s beat 40, ties break by ID ascending.
	want := []loopscope.LatencyExemplar{
		{EventID: "ev-1", Ns: 50}, {EventID: "ev-2", Ns: 50},
		{EventID: "ev-6", Ns: 50}, {EventID: "ev-3", Ns: 40},
	}
	for i, w := range want {
		if row.Exemplars[i] != w {
			t.Fatalf("exemplars[%d] = %+v, want %+v (all: %+v)", i, row.Exemplars[i], w, row.Exemplars)
		}
	}
	// Re-observing an identical (id, ns) pair — a replay — changes nothing.
	s.Observe(provenance.SegDetectCluster, "bb1", "ev-1", 50, false)
	row2 := s.Snapshot("", "").Segments[0]
	for i, w := range want {
		if row2.Exemplars[i] != w {
			t.Fatalf("replay disturbed exemplars: %+v", row2.Exemplars)
		}
	}
}

func TestLatencyStoreSnapshotFiltersAndOrder(t *testing.T) {
	s := NewLatencyStore()
	s.Observe(provenance.SegDetectCluster, "bb2", "e1", 10, false)
	s.Observe(provenance.SegDetectPublish, "bb1", "e2", 20, false)
	s.Observe(provenance.SegDetectPublish, "bb2", "e3", 30, false)
	st := s.Snapshot("", "")
	var got []string
	for _, r := range st.Segments {
		got = append(got, r.Segment+"/"+r.Vantage)
	}
	want := []string{"detect_publish/bb1", "detect_publish/bb2", "detect_cluster/bb2"}
	if len(got) != len(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows %v, want %v", got, want)
		}
	}
	only := s.Snapshot("bb1", "")
	if len(only.Segments) != 1 || only.Segments[0].Vantage != "bb1" {
		t.Fatalf("vantage filter: %+v", only.Segments)
	}
	seg := s.Snapshot("", provenance.SegDetectCluster)
	if len(seg.Segments) != 1 || seg.Segments[0].Segment != provenance.SegDetectCluster {
		t.Fatalf("segment filter: %+v", seg.Segments)
	}
}

func TestLatencyStoreNilSafe(t *testing.T) {
	var s *LatencyStore
	s.Observe("x", "y", "z", 1, false) // must not panic
	if st := s.Snapshot("", ""); len(st.Segments) != 0 {
		t.Fatalf("nil snapshot: %+v", st)
	}
}
