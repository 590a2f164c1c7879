package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loopscope/internal/api"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/trace"
)

// TestDaemonFlightTraceAndStatusz runs a daemon with the flight
// recorder attached over a trace with mid-stream finals, then checks
// the whole explanation surface: /api/v1/trace/{id} answers for every
// journaled final ID, /api/v1/statusz renders, the trail log holds the same
// trails, and the self-observability metrics moved.
func TestDaemonFlightTraceAndStatusz(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.lspt")
	journalPath := filepath.Join(dir, "loops.jsonl")
	trailPath := filepath.Join(dir, "trails.jsonl")
	// Two loops per prefix: the second's dirty gap forces the first to
	// finalize mid-stream, so the journal holds finals before drain.
	recs := serveScriptedTrace(t, 31, []scriptedLoop{
		{prefix: 0, start: 2 * time.Second}, {prefix: 0, start: 20 * time.Second},
		{prefix: 1, start: 5 * time.Second}, {prefix: 1, start: 25 * time.Second},
	})
	writeTraceFile(t, tracePath, testMeta(), recs)

	reg := obs.NewRegistry()
	fr := flight.New(flight.Options{})
	d, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     filepath.Join(dir, "cp.json"),
		CheckpointInterval: 10 * time.Millisecond,
		ExitIdle:           250 * time.Millisecond,
		TailPoll:           2 * time.Millisecond,
		Metrics:            reg,
		Flight:             fr,
		TrailPath:          trailPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{Path: journalPath, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	if err := d.AddTailSource("t1", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}

	finals := finalIDSet(t, journalEvents(t, journalPath))
	if len(finals) == 0 {
		t.Fatal("no final events journaled")
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Every journaled final has a queryable decision trail.
	for id := range finals {
		var tr flight.Trail
		getV1(t, srv.URL+"/api/v1/trace/"+id, &tr)
		if tr.ID != id {
			t.Errorf("trail id = %q, want %q", tr.ID, id)
		}
		if len(tr.Events) == 0 {
			t.Errorf("trail %s has no events", id)
			continue
		}
		kinds := map[flight.Kind]bool{}
		for _, ev := range tr.Events {
			kinds[ev.Kind] = true
		}
		for _, want := range []flight.Kind{flight.KindStreamOpen, flight.KindValidated, flight.KindLoopOpen, flight.KindLoopFinal} {
			if !kinds[want] {
				t.Errorf("trail %s missing %v (kinds %v)", id, want, kinds)
			}
		}
	}

	// Unknown and empty IDs.
	if resp, err := http.Get(srv.URL + "/api/v1/trace/deadbeef00000000"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trail: err=%v status=%v, want 404", err, resp.StatusCode)
	}
	var idx struct {
		Trails []string `json:"trails"`
	}
	getV1(t, srv.URL+"/api/v1/trace", &idx)
	if len(idx.Trails) < len(finals) {
		t.Errorf("trail index has %d ids, want >= %d", len(idx.Trails), len(finals))
	}

	// The status page renders with the source and at least one trail link.
	resp, err := http.Get(srv.URL + "/api/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d, want 200", resp.StatusCode)
	}
	page := string(body)
	for _, want := range []string{"t1", "/api/v1/trace/", "flight recorder"} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q", want)
		}
	}

	// The trail log holds a line per sealed final trail.
	trailData, err := os.ReadFile(trailPath)
	if err != nil {
		t.Fatal(err)
	}
	for id := range finals {
		if !strings.Contains(string(trailData), id) {
			t.Errorf("trail log missing %s", id)
		}
	}

	// Self-observability: detection latency observed per source, and
	// the checkpoint gauge is a recent wall-clock time.
	snap := reg.Snapshot()
	lat := snap.Histograms[obs.LabelMetric(obs.MetricServeDetectLatencyNs, "source", "t1")]
	if lat.Count == 0 {
		t.Error("detection-latency histogram never observed")
	}
	if cp := snap.Gauges[obs.MetricServeCheckpointUnixNs]; cp == 0 {
		t.Error("checkpoint gauge never set")
	}
}

// TestDaemonTrailsKeepToTheirSource: two tail sources with loops on
// the same /24 at the same trace-clock times. Each source records into
// a flight shard of its own, so a loop's trail holds its own source's
// decisions: the same events beside the other source as alone.
func TestDaemonTrailsKeepToTheirSource(t *testing.T) {
	dir := t.TempDir()
	loops := []scriptedLoop{{prefix: 0, start: 2 * time.Second}, {prefix: 0, start: 20 * time.Second}}
	for name, seed := range map[string]uint64{"t1": 31, "t2": 77} {
		writeTraceFile(t, filepath.Join(dir, name+".lspt"), testMeta(), serveScriptedTrace(t, seed, loops))
	}
	trails := func(sources ...string) map[string][]flight.Event {
		fr := flight.New(flight.Options{})
		d, err := New(Config{Detector: core.DefaultConfig(), ExitIdle: 250 * time.Millisecond, TailPoll: 2 * time.Millisecond, Flight: fr})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sources {
			if err := d.AddTailSource(name, filepath.Join(dir, name+".lspt")); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := d.Run(ctx); err != nil {
			t.Fatal(err)
		}
		out := map[string][]flight.Event{}
		for _, id := range fr.TrailIDs() {
			evs := fr.Trail(id).Events
			for i := range evs {
				evs[i].Seq = 0 // one counter across shards: it differs between runs
			}
			out[id] = evs
		}
		return out
	}
	alone, both := trails("t1"), trails("t1", "t2")
	if len(alone) == 0 || len(both) <= len(alone) {
		t.Fatalf("%d trails from t1 alone, %d beside t2; want some from each source", len(alone), len(both))
	}
	for id, want := range alone {
		if got := both[id]; !reflect.DeepEqual(got, want) {
			t.Errorf("trail %s holds %d events beside t2, %d alone", id, len(got), len(want))
		}
	}
}

// TestDaemonFlightDisabled404 checks the trace API reports disabled
// recording rather than claiming trails don't exist for other reasons.
func TestDaemonFlightDisabled404(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Detector: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddDirSource("d1", dir); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	status, _, body := v1Get(t, srv.URL+"/api/v1/trace/abc")
	if status != http.StatusNotFound || !strings.Contains(string(body), api.ErrDisabled) {
		t.Errorf("status = %d body %s, want 404 with code %q when flight disabled", status, body, api.ErrDisabled)
	}
}

// TestDaemonDirSegmentsProgress checks the dir source's rotation
// position reporting: segment i/N and the lag in its Source row.
func TestDaemonDirSegmentsProgress(t *testing.T) {
	dir := t.TempDir()
	segDir := filepath.Join(dir, "segs")
	if err := os.Mkdir(segDir, 0o755); err != nil {
		t.Fatal(err)
	}
	recs := serveTestTrace(t, 7, 3)
	k := len(recs) / 2
	meta1 := testMeta()
	writeTraceFile(t, filepath.Join(segDir, "seg-000.lspt"), meta1, recs[:k])
	cut := recs[k].Time
	meta2 := meta1
	meta2.Start = meta1.Start.Add(cut)
	seg2 := make([]trace.Record, 0, len(recs)-k)
	for _, r := range recs[k:] {
		r.Time -= cut
		seg2 = append(seg2, r)
	}
	writeTraceFile(t, filepath.Join(segDir, "seg-001.lspt"), meta2, seg2)

	d := newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), "")
	if err := d.AddDirSource("d1", segDir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}

	inf := d.sources[0].info()
	if inf.Segments != 2 || inf.Segment != 2 {
		t.Errorf("segment position = %d/%d, want 2/2", inf.Segment, inf.Segments)
	}
	if inf.LagSegments != 0 || inf.LagBytes != 0 {
		t.Errorf("lag = %d segments, %d bytes, want 0 after consuming both", inf.LagSegments, inf.LagBytes)
	}
}
