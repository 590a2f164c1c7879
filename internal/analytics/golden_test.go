package analytics

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/obs/provenance"
)

// update rewrites testdata/golden from the current code. The committed
// file was printed before the stats rows shared one sketch summary,
// which is what makes TestGoldenDocuments an equivalence proof;
// regenerate it only for a change that means to alter the output.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGoldenDocuments: the stats documents Query builds (cumulative and
// one hour, every source and one, every metric and one) and the latency
// document LatencyStore.Snapshot builds, over seeded observations, are
// byte for byte what they were when the golden file was written.
func TestGoldenDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := time.Unix(1_700_000_000, 0)
	clock, now := testClock(base)
	c := NewCollector(Options{Now: clock})
	lat := NewLatencyStore()
	for i := 0; i < 120; i++ {
		// Two hours of observations, so the 1h window drops about half.
		*now = base.Add(time.Duration(i) * time.Minute)
		o := LoopObs{
			ID:         fmt.Sprintf("loop-%d", i),
			Prefix:     fmt.Sprintf("10.%d.%d.0/24", rng.Intn(3), rng.Intn(40)),
			DurationNs: 1 + rng.Int63n(20_000_000_000),
			TTLDelta:   2 + rng.Intn(6),
			Streams:    1 + rng.Intn(9),
			Replicas:   3 + rng.Intn(500),
		}
		for j := rng.Intn(3); j > 0; j-- {
			o.EscapeDelaysNs = append(o.EscapeDelaysNs, rng.Int63n(300_000_000))
		}
		c.RecordLoop([]string{"bb1", "bb2", "bb3"}[rng.Intn(3)], o)
		seg := provenance.Segments[rng.Intn(len(provenance.Segments))]
		lat.Observe(seg, fmt.Sprintf("bb%d", 1+rng.Intn(3)), o.ID, rng.Int63n(50_000_000), rng.Intn(13) == 0)
	}

	var out bytes.Buffer
	section := func(name string, v any) {
		doc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s ==\n%s\n", name, doc)
	}
	for _, q := range []Query{
		{},
		{Window: time.Hour},
		{Source: "bb2"},
		{Window: time.Hour, Source: "bb3", Metric: metricTTLDelta},
	} {
		st, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("query window=%v source=%q metric=%q", q.Window, q.Source, q.Metric), st)
	}
	section("latency", lat.Snapshot("", ""))
	section("latency vantage=bb2", lat.Snapshot("bb2", ""))

	path := filepath.Join("testdata", "golden", "documents.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("documents differ from the golden output:\n--- got\n%s\n--- want\n%s", out.Bytes(), want)
	}
}
