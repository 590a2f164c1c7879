package analytics

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/pkg/loopscope"
)

// testClock returns a Collector clock pinned to a mutable instant.
func testClock(t0 time.Time) (func() time.Time, *time.Time) {
	now := t0
	return func() time.Time { return now }, &now
}

func obsN(i int) LoopObs {
	return LoopObs{
		ID:             fmt.Sprintf("loop-%d", i),
		Prefix:         fmt.Sprintf("10.%d.0.0/16", i%4),
		DurationNs:     int64(1_000_000 * (i + 1)),
		TTLDelta:       3 + i%5,
		Streams:        1 + i%3,
		Replicas:       10 * (i + 1),
		EscapeDelaysNs: []int64{int64(500_000 * (i + 1))},
	}
}

func TestCollectorRecordAndQuery(t *testing.T) {
	clock, _ := testClock(time.Unix(1_700_000_000, 0))
	c := NewCollector(Options{Now: clock})
	for i := 0; i < 10; i++ {
		c.RecordLoop("src-a", obsN(i))
	}
	ing, dup := c.Counts()
	if ing != 10 || dup != 0 {
		t.Fatalf("counts %d/%d, want 10/0", ing, dup)
	}

	st, err := c.Query(Query{Window: 0, Source: "src-a"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loops != 10 || st.Window != "all" {
		t.Fatalf("loops=%d window=%q", st.Loops, st.Window)
	}
	if len(st.Metrics) != len(Metrics) {
		t.Fatalf("got %d metrics, want %d", len(st.Metrics), len(Metrics))
	}
	dur := st.Metrics[MetricDuration]
	if dur.Count != 10 || dur.Kind != "sketch" {
		t.Fatalf("duration stats %+v", dur)
	}
	if dur.Min != 1_000_000 || dur.Max != 10_000_000 {
		t.Fatalf("duration min/max %d/%d", dur.Min, dur.Max)
	}
	ttl := st.Metrics[MetricTTLDelta]
	if ttl.Kind != "exact" || ttl.Count != 10 {
		t.Fatalf("ttl stats %+v", ttl)
	}
	esc := st.Metrics[MetricEscapeDelay]
	if esc.Count != 10 {
		t.Fatalf("escape delays %+v", esc)
	}
	if len(st.TopPrefixes) != 4 {
		t.Fatalf("top prefixes %v", st.TopPrefixes)
	}

	// Single-metric query trims the response.
	st, err = c.Query(Query{Source: "src-a", Metric: MetricStreams})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Metrics) != 1 || st.Metrics[MetricStreams].Count != 10 {
		t.Fatalf("metric-filtered stats %+v", st.Metrics)
	}

	// An unknown metric is a typed error.
	if _, err := c.Query(Query{Metric: "bogus"}); err == nil {
		t.Fatal("unknown metric accepted")
	} else if _, ok := err.(*ErrUnknownMetric); !ok {
		t.Fatalf("error type %T", err)
	}
	// A source with nothing recorded gets the empty document: every
	// metric, zero counts, the window spelled as for any other source.
	st, err = c.Query(Query{Window: 5 * time.Minute, Source: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loops != 0 || st.Source != "nope" || st.Window != "5m0s" || len(st.Metrics) != len(Metrics) {
		t.Fatalf("idle source document %+v", st)
	}
	for name, ms := range st.Metrics {
		if ms.Count != 0 || ms.Buckets == nil || len(ms.Quantiles) != 3 {
			t.Errorf("idle source metric %s: %+v", name, ms)
		}
	}
}

func TestCollectorDedup(t *testing.T) {
	c := NewCollector(Options{})
	o := obsN(0)
	c.RecordLoop("s", o)
	c.RecordLoop("s", o) // same ID: dropped
	o2 := obsN(1)
	o2.ID = "" // no ID: always counted
	c.RecordLoop("s", o2)
	c.RecordLoop("s", o2)
	ing, dup := c.Counts()
	if ing != 3 || dup != 1 {
		t.Fatalf("counts %d/%d, want 3/1", ing, dup)
	}
}

func TestCollectorWindows(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).Truncate(24 * time.Hour)
	clock, now := testClock(base)
	c := NewCollector(Options{Now: clock})

	// One loop per minute for 10 minutes.
	for i := 0; i < 10; i++ {
		*now = base.Add(time.Duration(i) * time.Minute)
		c.RecordLoop("s", obsN(i))
	}
	*now = base.Add(9*time.Minute + 30*time.Second)

	cases := []struct {
		window time.Duration
		want   uint64
	}{
		// 5m window at now=9m30s: cutoff 4m30s; windows round outward to
		// segment edges, so the minute-4 segment is included — minutes 4..9.
		{5 * time.Minute, 6},
		{time.Hour, 10},
		{24 * time.Hour, 10},
		{0, 10},
	}
	for _, tc := range cases {
		st, err := c.Query(Query{Window: tc.window, Source: "s"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Loops != tc.want {
			t.Errorf("window %v: loops=%d, want %d", tc.window, st.Loops, tc.want)
		}
	}

	// Jump past the minute tier's retention: 1m queries go empty, the
	// hour tier still answers.
	*now = base.Add(3 * time.Hour)
	c.RecordLoop("s", obsN(99))
	st, err := c.Query(Query{Window: 2 * time.Minute, Source: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Loops != 1 {
		t.Fatalf("after jump, 2m window loops=%d, want 1", st.Loops)
	}
	st, _ = c.Query(Query{Window: 4 * time.Hour, Source: "s"})
	if st.Loops != 11 {
		t.Fatalf("4h window loops=%d, want 11", st.Loops)
	}
}

// TestCollectorObservationTime: a loop stamped with AtNs counts in the
// windows of that time, whether its segment is the newest, an older one
// already held, a new one between two held or a new oldest one; the
// segments stay in order, so the state still snapshots and restores.
func TestCollectorObservationTime(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).Truncate(24 * time.Hour)
	clock, now := testClock(base.Add(time.Hour))
	c := NewCollector(Options{Now: clock})
	at := func(d time.Duration, i int) LoopObs {
		o := obsN(i)
		o.AtNs = base.Add(d).UnixNano()
		return o
	}
	for i, d := range []time.Duration{50 * time.Minute, 10 * time.Minute, 30 * time.Minute, 10 * time.Minute, -5 * time.Hour} {
		c.RecordLoop("s", at(d, i))
	}
	for _, tc := range []struct {
		window time.Duration
		want   uint64
	}{{5 * time.Minute, 0}, {15 * time.Minute, 1}, {45 * time.Minute, 2}, {time.Hour, 4}, {6 * time.Hour, 5}, {0, 5}} {
		st, err := c.Query(Query{Window: tc.window, Source: "s"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Loops != tc.want {
			t.Errorf("window %v at %v: loops=%d, want %d", tc.window, now.Sub(base), st.Loops, tc.want)
		}
	}
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCollector(Options{Now: clock}).DecodeSnapshot(data); err != nil {
		t.Fatalf("snapshot of out-of-order observations: %v", err)
	}
}

func TestCollectorMultiSourceMerge(t *testing.T) {
	c := NewCollector(Options{})
	for i := 0; i < 4; i++ {
		c.RecordLoop("a", obsN(i))
	}
	for i := 4; i < 10; i++ {
		c.RecordLoop("b", obsN(i))
	}
	st, err := c.Query(Query{}) // all sources, all time
	if err != nil {
		t.Fatal(err)
	}
	if st.Loops != 10 {
		t.Fatalf("merged loops=%d, want 10", st.Loops)
	}
	for src, want := range map[string]uint64{"a": 4, "b": 6} {
		if st, err := c.Query(Query{Source: src}); err != nil || st.Loops != want {
			t.Fatalf("source %s: %+v, %v; want %d loops", src, st, err, want)
		}
	}
}

func TestParseWindow(t *testing.T) {
	for _, s := range []string{"", "all"} {
		if d, err := ParseWindow(s); err != nil || d != 0 {
			t.Fatalf("ParseWindow(%q) = %v, %v", s, d, err)
		}
	}
	if d, err := ParseWindow("5m"); err != nil || d != 5*time.Minute {
		t.Fatalf("5m: %v, %v", d, err)
	}
	for _, s := range []string{"bogus", "-5m", "10s", "400h", "5"} {
		if _, err := ParseWindow(s); err == nil {
			t.Fatalf("ParseWindow(%q) accepted", s)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	clock, _ := testClock(time.Unix(1_700_000_000, 0))
	c := NewCollector(Options{Now: clock})
	for i := 0; i < 50; i++ {
		c.RecordLoop(fmt.Sprintf("src-%d", i%3), obsN(i))
	}
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewCollector(Options{Now: clock})
	if err := restored.DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"", "src-0", "src-1", "src-2"} {
		want, err := c.Query(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Query(Query{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if got.Loops != want.Loops {
			t.Fatalf("source %q: loops %d vs %d", src, got.Loops, want.Loops)
		}
		for _, m := range Metrics {
			if got.Metrics[m].Count != want.Metrics[m].Count ||
				got.Metrics[m].Quantiles["p50"] != want.Metrics[m].Quantiles["p50"] {
				t.Fatalf("source %q metric %s diverged after round trip", src, m)
			}
		}
	}
	// The seen ring rides along: replaying an old event stays deduped.
	restored.RecordLoop("src-0", obsN(0))
	ing, dup := restored.Counts()
	wantIng, _ := c.Counts()
	if ing != wantIng || dup != 1 {
		t.Fatalf("post-restore replay: ingested %d (want %d), deduped %d (want 1)", ing, wantIng, dup)
	}
}

// TestSnapshotTruncationEveryByte is the torn-tail discipline applied
// to the analytics snapshot: no prefix of a valid snapshot may decode,
// and every failure must leave the collector untouched.
func TestSnapshotTruncationEveryByte(t *testing.T) {
	c := NewCollector(Options{})
	for i := 0; i < 8; i++ {
		c.RecordLoop("s", obsN(i))
	}
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		fresh := NewCollector(Options{})
		if err := fresh.DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded successfully", cut, len(data))
		}
		if ing, _ := fresh.Counts(); ing != 0 {
			t.Fatalf("failed decode at byte %d mutated collector", cut)
		}
	}
	// The full image still decodes.
	fresh := NewCollector(Options{})
	if err := fresh.DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	}
}

// badSnapshots are snapshot images DecodeSnapshot must refuse, by what
// is wrong with them.
var badSnapshots = map[string]string{
	"unknown field": `{"version":1,"sources":{},"bogus":1}`,
	"wrong version": `{"version":2,"sources":{}}`,
	"trailing data": `{"version":1,"sources":{}}{"more":true}`,
	"empty source":  `{"version":1,"sources":{"":null}}`,
	"tier count":    `{"version":1,"sources":{"s":{"tiers":[],"all":{"duration":{"n":0,"sum":0,"min":0,"max":0},"ttlDelta":{"n":0},"streams":{"n":0},"replicas":{"n":0,"sum":0,"min":0,"max":0},"escapeDelay":{"n":0,"sum":0,"min":0,"max":0},"loops":0}}}}`,
	"count lies":    `{"version":1,"sources":{"s":{"tiers":[[],[],[]],"all":{"duration":{"n":5,"sum":0,"min":0,"max":0},"ttlDelta":{"n":0},"streams":{"n":0},"replicas":{"n":0,"sum":0,"min":0,"max":0},"escapeDelay":{"n":0,"sum":0,"min":0,"max":0},"loops":0}}}}`,
	"dup seen id":   `{"version":1,"sources":{},"seen":["a","a"]}`,
	"empty seen id": `{"version":1,"sources":{},"seen":[""]}`,
}

func TestSnapshotRejectsBadImages(t *testing.T) {
	for name, img := range badSnapshots {
		c := NewCollector(Options{})
		if err := c.DecodeSnapshot([]byte(img)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSnapshotSaveLoadQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "analytics.snap")

	c := NewCollector(Options{})
	for i := 0; i < 5; i++ {
		c.RecordLoop("s", obsN(i))
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded := NewCollector(Options{})
	if q, err := loaded.Load(path); err != nil || q {
		t.Fatalf("load: q=%v err=%v", q, err)
	}
	if ing, _ := loaded.Counts(); ing != 5 {
		t.Fatalf("loaded ingested=%d, want 5", ing)
	}

	// Missing file: clean first start.
	fresh := NewCollector(Options{})
	if q, err := fresh.Load(filepath.Join(dir, "absent")); err != nil || q {
		t.Fatalf("missing file: q=%v err=%v", q, err)
	}

	// Corrupt file: quarantined, error reported, state empty.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	hurt := NewCollector(Options{})
	q, err := hurt.Load(path)
	if err == nil || !q {
		t.Fatalf("corrupt load: q=%v err=%v", q, err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Fatalf("quarantine file missing: %v", statErr)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("corrupt file still in place: %v", statErr)
	}
	if ing, _ := hurt.Counts(); ing != 0 {
		t.Fatal("corrupt load left state behind")
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordLoop("s", obsN(0)) // must not panic
	if ing, dup := c.Counts(); ing != 0 || dup != 0 {
		t.Fatal("nil counts")
	}
	if _, err := c.Query(Query{}); err == nil {
		t.Fatal("nil query accepted")
	}
}

// TestParentSnapshotFixture: a snapshot written before Save/Load moved
// onto internal/durable loads unchanged and re-serializes to the same
// bytes.
func TestParentSnapshotFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "analytics.snap")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCollector(Options{})
	if q, err := c.Load(path); err != nil || q {
		t.Fatalf("fixture did not load: quarantined=%v err=%v", q, err)
	}
	if ing, _ := c.Counts(); ing != 6 {
		t.Errorf("loaded ingested=%d, want 6", ing)
	}
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("snapshot image changed:\n got %s\nwant %s", got, want)
	}
}

func TestSpark(t *testing.T) {
	if got := Spark(nil); got != "" {
		t.Errorf("Spark(nil) = %q", got)
	}
	if got := Spark([]loopscope.Bucket{{Count: 0}, {Count: 1}, {Count: 7}, {Count: 4}}); got != "▁▂█▅" {
		t.Errorf("Spark = %q", got)
	}
}
