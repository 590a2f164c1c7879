// Micro-benchmarks of the detector, the observability layer, the fleet
// aggregator and the FIB scanner. CI's bench-smoke job runs them and
// cmd/benchjson turns their output into the BENCH_*.json guards. The
// paper's tables and figures are regenerated by cmd/paperrepro.
package loopscope_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"loopscope/internal/agg"
	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/obs/provenance"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
	"loopscope/pkg/loopscope"
)

// BenchmarkDetectorThroughput measures raw detection speed on a large
// synthesized trace (records/second), the figure that matters for
// applying the tool to real multi-hour captures.
func BenchmarkDetectorThroughput(b *testing.B) {
	rng := stats.NewRNG(9)
	var dests []routing.Prefix
	for i := 0; i < 256; i++ {
		dests = append(dests, routing.NewPrefix(packet.AddrFrom(198, byte(20+i/256), byte(i), 0), 24))
	}
	cfg := traffic.SynthConfig{
		Duration: 60 * time.Second, PacketsPerSecond: 20000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 10,
	}
	for i := 0; i < 12; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:   dests[rng.Intn(len(dests))],
			Start:    time.Duration(rng.Int63n(int64(50 * time.Second))),
			Duration: time.Duration(200+rng.Intn(3000)) * time.Millisecond,
			TTLDelta: 2 + rng.Intn(4), Revolution: 3 * time.Millisecond,
		})
	}
	recs := traffic.Synthesize(cfg, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DetectRecords(recs, core.DefaultConfig())
	}
	b.StopTimer()
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

var (
	parallelTraceOnce sync.Once
	parallelTraceRecs []trace.Record
)

// parallelBenchTrace synthesizes the multi-million-record workload the
// parallel sweep measures, once per test binary (synthesis costs more
// than detection and must stay outside the timed region).
func parallelBenchTrace() []trace.Record {
	parallelTraceOnce.Do(func() {
		rng := stats.NewRNG(21)
		var dests []routing.Prefix
		for i := 0; i < 256; i++ {
			dests = append(dests, routing.NewPrefix(packet.AddrFrom(198, 20, byte(i), 0), 24))
		}
		cfg := traffic.SynthConfig{
			Duration: 100 * time.Second, PacketsPerSecond: 20000,
			Mix: traffic.DefaultMix(), DestPrefixes: dests,
			HopsMin: 3, HopsMax: 10,
		}
		for i := 0; i < 12; i++ {
			cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
				Prefix:   dests[rng.Intn(len(dests))],
				Start:    time.Duration(rng.Int63n(int64(80 * time.Second))),
				Duration: time.Duration(200+rng.Intn(3000)) * time.Millisecond,
				TTLDelta: 2 + rng.Intn(4), Revolution: 3 * time.Millisecond,
			})
		}
		parallelTraceRecs = traffic.Synthesize(cfg, rng)
	})
	return parallelTraceRecs
}

// BenchmarkParallelDetect sweeps the sharded engine's worker count
// over the same multi-million-record trace; records/s per worker count
// is the scaling figure (the CI smoke job extracts it into
// BENCH_parallel.json). workers=1 runs a single Detector, so the
// sweep directly measures pipeline overhead and shard scaling. Note
// the speedup can only materialize when the host actually has the
// cores — on a single-core runner every worker count lands within
// noise of sequential.
func BenchmarkParallelDetect(b *testing.B) {
	recs := parallelBenchTrace()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.DefaultConfig(), core.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if bo, ok := e.(core.BatchObserver); ok {
					bo.ObserveBatch(recs)
				} else {
					for _, r := range recs {
						e.Observe(r)
					}
				}
				if res := e.Finish(); res.TotalPackets != len(recs) {
					b.Fatalf("engine saw %d of %d records", res.TotalPackets, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkNaiveVsIndexed quantifies the hash index against the naive
// pairwise scan on the same trace (DESIGN.md ablation 5).
func BenchmarkNaiveVsIndexed(b *testing.B) {
	rng := stats.NewRNG(10)
	var dests []routing.Prefix
	for i := 0; i < 64; i++ {
		dests = append(dests, routing.NewPrefix(packet.AddrFrom(198, 30, byte(i), 0), 24))
	}
	cfg := traffic.SynthConfig{
		Duration: 20 * time.Second, PacketsPerSecond: 5000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 10,
		Loops: []traffic.LoopSpec{{
			Prefix: dests[3], Start: 5 * time.Second,
			Duration: 2 * time.Second, TTLDelta: 2, Revolution: 3 * time.Millisecond,
		}},
	}
	recs := traffic.Synthesize(cfg, rng)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DetectRecords(recs, core.DefaultConfig())
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.NaiveDetectRecords(recs, core.DefaultConfig())
		}
	})
}

// BenchmarkStreamingVsBatch runs the one detector the two ways it is
// finished on the same trace: batch collects the loops and builds the
// canonical Result with its per-record membership index; streaming
// hands loops to a callback and ends on the counters alone. Observe is
// the same code, so the two differ only by that final step.
func BenchmarkStreamingVsBatch(b *testing.B) {
	rng := stats.NewRNG(14)
	var dests []routing.Prefix
	for i := 0; i < 128; i++ {
		dests = append(dests, routing.NewPrefix(packet.AddrFrom(198, 40, byte(i), 0), 24))
	}
	cfg := traffic.SynthConfig{
		Duration: 60 * time.Second, PacketsPerSecond: 10000,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 10,
	}
	for i := 0; i < 8; i++ {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix:     dests[rng.Intn(len(dests))],
			Start:      time.Duration(rng.Int63n(int64(50 * time.Second))),
			Duration:   time.Duration(200+rng.Intn(2000)) * time.Millisecond,
			TTLDelta:   2 + rng.Intn(3),
			Revolution: 3 * time.Millisecond,
		})
	}
	recs := traffic.Synthesize(cfg, rng)
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.DetectRecords(recs, core.DefaultConfig())
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sd := core.NewStreamDetector(core.DefaultConfig(), func(*core.Loop) {})
			for _, r := range recs {
				sd.Observe(r)
			}
			sd.Finish()
		}
	})
}

// BenchmarkObsOverhead measures what pipeline instrumentation costs:
// mode=noop runs core.Run over the parallel engine with a nil registry
// — the uninstrumented default, where every metric call is a
// nil-receiver no-op — and mode=instrumented runs the identical loop
// the way loopdetect -json does: the source metered (ingest tap) and
// the engine built WithMetrics (per-shard counters, queue depths,
// backpressure timing, the reduce span). CI extracts
// both into BENCH_obs.json and fails the build when instrumented
// regresses more than the budget (see cmd/benchjson -mode obs): the
// observability subsystem's overhead contract, kept honest by a
// benchmark instead of a comment.
func BenchmarkObsOverhead(b *testing.B) {
	recs := parallelBenchTrace()
	for _, mode := range []string{"noop", "instrumented"} {
		b.Run("mode="+mode, func(b *testing.B) {
			b.ReportAllocs()
			var reg *obs.Registry
			if mode == "instrumented" {
				reg = obs.NewRegistry()
			}
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.DefaultConfig(), core.WithWorkers(4), core.WithMetrics(reg))
				if err != nil {
					b.Fatal(err)
				}
				// noop reads the bare records: the tap is instrumentation,
				// and MeterSource puts it there even without a registry.
				var src trace.Source = trace.NewSliceSource(trace.Meta{Link: "bench"}, recs)
				if reg != nil {
					src = trace.MeterSource(src, reg, nil)
				}
				res, err := core.Run(e, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalPackets != len(recs) {
					b.Fatalf("engine saw %d of %d records", res.TotalPackets, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			if reg != nil {
				for _, st := range reg.StageTimings() {
					b.ReportMetric(float64(st.Total.Nanoseconds())/float64(b.N), "stage_"+st.Stage+"_ns")
				}
			}
		})
	}
}

// BenchmarkFlightRecorder measures the decision-tracing tax the same
// way BenchmarkObsOverhead measures metrics: mode=noop runs the
// parallel pipeline with no recorder attached (a nil *flight.Recorder
// handle, so every lifecycle call is a nil-receiver no-op) and
// mode=recording attaches a recorder with the production defaults
// (sampled replica appends, bounded per-shard rings). CI extracts both
// into BENCH_obs.json (cmd/benchjson -mode obs) under the same
// regression budget, keeping "low-overhead" a tested property.
func BenchmarkFlightRecorder(b *testing.B) {
	recs := parallelBenchTrace()
	for _, mode := range []string{"noop", "recording"} {
		b.Run("mode="+mode, func(b *testing.B) {
			b.ReportAllocs()
			var fr *flight.Recorder
			if mode == "recording" {
				fr = flight.New(flight.Options{})
			}
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.DefaultConfig(), core.WithWorkers(4), core.WithFlight(fr))
				if err != nil {
					b.Fatal(err)
				}
				src := trace.NewSliceSource(trace.Meta{Link: "bench"}, recs)
				res, err := core.Run(e, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalPackets != len(recs) {
					b.Fatalf("engine saw %d of %d records", res.TotalPackets, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			if fr != nil {
				st := fr.Stats()
				b.ReportMetric(float64(st.Events)/float64(b.N), "flight_events/op")
			}
		})
	}
}

// BenchmarkAnalyticsIngest measures the online-analytics tax the same
// way BenchmarkObsOverhead measures metrics: mode=noop runs the
// streaming pipeline with an emit callback that only counts loops,
// and mode=ingesting reduces every emitted loop through
// analytics.ObsFromLoop into a live collector — sketches, window
// segments, top-K, the whole /api/v1/stats feed. CI extracts both
// into BENCH_obs.json (cmd/benchjson -mode obs) under the shared
// regression budget, so "the daemon can afford always-on analytics"
// stays a tested property.
func BenchmarkAnalyticsIngest(b *testing.B) {
	recs := parallelBenchTrace()
	for _, mode := range []string{"noop", "ingesting"} {
		b.Run("mode="+mode, func(b *testing.B) {
			b.ReportAllocs()
			var c *analytics.Collector
			if mode == "ingesting" {
				c = analytics.NewCollector(analytics.Options{})
			}
			var loops int64
			for i := 0; i < b.N; i++ {
				seq := 0
				emit := func(l *core.Loop) { seq++ }
				if c != nil {
					emit = func(l *core.Loop) {
						seq++
						c.RecordLoop("bench", analytics.ObsFromLoop(fmt.Sprintf("%d-%d", i, seq), l))
					}
				}
				e, err := core.New(core.DefaultConfig(), core.WithStreaming(emit))
				if err != nil {
					b.Fatal(err)
				}
				src := trace.NewSliceSource(trace.Meta{Link: "bench"}, recs)
				res, err := core.Run(e, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalPackets != len(recs) {
					b.Fatalf("engine saw %d of %d records", res.TotalPackets, len(recs))
				}
				loops = int64(seq)
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			if c != nil {
				b.StopTimer() // the count is read off the snapshot, outside the timing
				snap, err := c.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				var n struct{ Ingested uint64 }
				if err := json.Unmarshal(snap, &n); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n.Ingested)/float64(b.N), "analytics_loops/op")
				_ = loops
			}
		})
	}
}

// BenchmarkProvenanceStamp measures the pipeline-provenance tax the
// same way BenchmarkObsOverhead measures metrics: mode=noop runs the
// streaming pipeline with an emit callback that only counts loops
// (the nil-record, allocation-free stamp path), and mode=stamping
// performs the full per-event hop work the daemon does — the
// detect/publish/journal stamp chain plus the copy-on-write webhook
// divergence — per emitted loop. CI extracts both into BENCH_obs.json
// (cmd/benchjson -mode obs) under the shared 5% regression budget, so
// "provenance rides every event for free" stays a tested property.
func BenchmarkProvenanceStamp(b *testing.B) {
	recs := parallelBenchTrace()
	for _, mode := range []string{"noop", "stamping"} {
		b.Run("mode="+mode, func(b *testing.B) {
			b.ReportAllocs()
			stamping := mode == "stamping"
			var sink int64
			for i := 0; i < b.N; i++ {
				seq := 0
				emit := func(l *core.Loop) { seq++ }
				if stamping {
					emit = func(l *core.Loop) {
						seq++
						var r *provenance.Record
						r = r.Stamp(provenance.HopDetected, provenance.Now())
						r = r.Stamp(provenance.HopPublished, provenance.Now())
						r = r.Stamp(provenance.HopJournaled, provenance.Now())
						w := r.Stamp(provenance.HopWebhookSent, provenance.Now())
						sink += w.WebhookSentNs - r.DetectedNs
					}
				}
				e, err := core.New(core.DefaultConfig(), core.WithStreaming(emit))
				if err != nil {
					b.Fatal(err)
				}
				src := trace.NewSliceSource(trace.Meta{Link: "bench"}, recs)
				res, err := core.Run(e, src)
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalPackets != len(recs) {
					b.Fatalf("engine saw %d of %d records", res.TotalPackets, len(recs))
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			_ = sink
		})
	}
}

// BenchmarkAggIngest measures the fleet aggregator's observation path
// (journal-less, so the numbers isolate correlation + dedup + stats,
// not disk). mode=fresh ingests never-seen events: seen-set insert,
// cluster scan/join across ~1k live clusters, per-vantage analytics
// reduction. mode=duplicate replays an already-absorbed batch — the
// at-least-once redelivery path every webhook retry and poll overlap
// takes, which must stay a cheap seen-set hit. CI extracts both into
// BENCH_agg.json (cmd/benchjson -mode agg) and fails when the
// duplicate path costs more than the fresh path plus the shared
// regression budget.
func BenchmarkAggIngest(b *testing.B) {
	const batch = 1024
	mkObs := func(round, i int) agg.Observation {
		vantage := fmt.Sprintf("bb%d", i%8)
		start := int64(i) * int64(time.Minute)
		return agg.Observation{Vantage: vantage, Transport: agg.TransportPush,
			Event: loopscope.Event{
				ID:         fmt.Sprintf("e%d-%d", round, i),
				Source:     "bench-tap",
				Vantage:    vantage,
				Prefix:     fmt.Sprintf("10.%d.%d.0/24", i/256%256, i%256),
				StartNs:    start,
				EndNs:      start + int64(30*time.Second),
				DurationNs: int64(30 * time.Second),
				Streams:    2,
				Replicas:   12,
				TTLDelta:   2 + i%5,
			}}
	}
	for _, mode := range []string{"fresh", "duplicate"} {
		b.Run("mode="+mode, func(b *testing.B) {
			b.ReportAllocs()
			now := time.Unix(1_700_000_000, 0)
			a, err := agg.New(agg.Config{Now: func() time.Time { return now }})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			if mode == "duplicate" {
				for i := 0; i < batch; i++ {
					if _, err := a.Ingest(mkObs(0, i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Fresh rounds mint new event IDs but repeat the same
				// prefixes and windows, so observations join existing
				// clusters instead of growing the cluster table
				// unboundedly; the duplicate round replays round 0.
				round := 0
				if mode == "fresh" {
					round = n + 1
				}
				for i := 0; i < batch; i++ {
					accepted, err := a.Ingest(mkObs(round, i))
					if err != nil {
						b.Fatal(err)
					}
					if want := mode == "fresh"; accepted != want {
						b.Fatalf("Ingest accepted = %v in mode %s", accepted, mode)
					}
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "obs/s")
			if mode == "fresh" {
				observations, _, fleetLoops, _ := a.Counts()
				if observations != int64(batch)*int64(b.N) {
					b.Fatalf("aggregator absorbed %d observations, want %d", observations, int64(batch)*int64(b.N))
				}
				b.ReportMetric(float64(fleetLoops), "fleet_loops")
			}
		})
	}
}

// BenchmarkFIBScan measures the static control-plane loop scan
// (internal/fibscan) on synthetic hub-and-spoke fleets: 10k prefixes,
// 20 injected stale-convergence loops, at two fleet sizes. The sweep
// is O(entries + atoms + routers + run starts x path length), so
// per-router cost must not grow with fleet size; CI extracts both rows
// into BENCH_fibscan.json (cmd/benchjson -mode fibscan) and fails when
// the large fleet's per-router cost regresses past the budget relative
// to the small one.
func BenchmarkFIBScan(b *testing.B) {
	const prefixes, loops = 10000, 20
	for _, routers := range []int{100, 1000} {
		snap, looped := fibscan.Synthetic(routers, prefixes, loops)
		b.Run(fmt.Sprintf("routers=%d", routers), func(b *testing.B) {
			b.ReportAllocs()
			var rep *fibscan.Report
			for i := 0; i < b.N; i++ {
				rep = fibscan.Scan(&snap)
			}
			if len(rep.Warnings) != 0 {
				b.Fatalf("scan warned: %v", rep.Warnings)
			}
			found := 0
			for _, p := range looped {
				for i := range rep.Cycles {
					if slices.Contains(rep.Cycles[i].Prefixes, p) {
						found++
						break
					}
				}
			}
			if found != len(looped) {
				b.Fatalf("found %d of %d injected loops", found, len(looped))
			}
			b.ReportMetric(float64(rep.Atoms), "atoms")
			b.ReportMetric(float64(len(rep.Cycles)), "cycles")
		})
	}
}
