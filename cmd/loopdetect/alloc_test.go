package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// warmMeter lends its source's records on and reads the allocation
// counters at the first record stamped after warm.
type warmMeter struct {
	trace.Source
	warm   time.Duration
	n      int // records passed on since warm
	warmed runtime.MemStats
}

func (m *warmMeter) Borrow(rec *trace.Record) error {
	err := m.Source.Borrow(rec)
	if err == nil && rec.Time > m.warm {
		if m.n == 0 {
			runtime.ReadMemStats(&m.warmed)
		}
		m.n++
	}
	return err
}

// TestScanAllocationBudget: over the second half of a sparse capture,
// once the detector's tables have grown, the tool's one pass — read,
// hand-off, detection — allocates next to nothing per record,
// sequential or sharded. Copying each record out of the reader's window
// costs 41 B per record.
func TestScanAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	dests := make([]routing.Prefix, 256)
	for i := range dests {
		dests[i] = routing.NewPrefix(packet.AddrFrom(198, 18, byte(i), 0), 24)
	}
	const length = time.Minute
	path := filepath.Join(t.TempDir(), "sparse.lspt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Meta{Link: "sparse", SnapLen: 40, Start: time.Unix(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	traffic.SynthesizeStream(traffic.SynthConfig{
		Duration: length, PacketsPerSecond: 10000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 8,
	}, stats.NewRNG(11), func(r trace.Record) {
		if err == nil {
			err = w.Write(r)
		}
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, 2} {
		workerCount = workers
		src, _, err := trace.Open(path, trace.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := &warmMeter{Source: src, warm: length / 2}
		sc, err := scanSource(m, nil, cfg, false)
		var end runtime.MemStats
		runtime.ReadMemStats(&end)
		trace.CloseSource(src)
		if err != nil || m.n == 0 {
			t.Fatalf("scan: %v, %d records after warm-up", err, m.n)
		}
		size := float64(end.TotalAlloc-m.warmed.TotalAlloc) / float64(m.n)
		t.Logf("workers %d: %d records, %.4f allocs and %.2f B per record once warm, finish included",
			workers, sc.res.TotalPackets, float64(end.Mallocs-m.warmed.Mallocs)/float64(m.n), size)
		if size > 4 {
			t.Errorf("workers %d: scan allocates %.2f B per record once warm; budget 4", workers, size)
		}
	}
	workerCount = 0
}
