package traffic

import (
	"runtime"
	"testing"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// TestSynthesizeAllocationBudget: on a loop-free trace of 40-byte
// snaps, a streamed record costs its capture bytes, cut from a shared
// slab, and next to nothing else: no allocation of its own, no map
// entry. Synthesize adds the record itself, once in a chunk and once in
// the result.
func TestSynthesizeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	dests := make([]routing.Prefix, 256)
	for i := range dests {
		dests[i] = routing.NewPrefix(packet.AddrFrom(198, 18, byte(i), 0), 24)
	}
	cfg := SynthConfig{
		Duration: 20 * time.Second, PacketsPerSecond: 10_000, SnapLen: trace.DefaultSnapLen,
		Mix: DefaultMix(), DestPrefixes: dests, HopsMin: 3, HopsMax: 10,
	}
	measure := func(name string, maxAllocs, maxBytes float64, run func() int) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := run()
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
		size := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%s: %d records, %.4f allocs and %.1f B per record", name, n, allocs, size)
		if allocs > maxAllocs || size > maxBytes {
			t.Errorf("%s costs %.4f allocs and %.1f B per record, budget %g and %g",
				name, allocs, size, maxAllocs, maxBytes)
		}
	}
	measure("SynthesizeStream", 0.05, 48, func() (n int) {
		SynthesizeStream(cfg, stats.NewRNG(1), func(trace.Record) { n++ })
		return n
	})
	measure("Synthesize", 0.05, 160, func() int { return len(Synthesize(cfg, stats.NewRNG(1))) })
}
