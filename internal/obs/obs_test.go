package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("same name returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}

	h := r.Histogram("h", []int64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	// Buckets: <=1: {0,1}=2, <=10: {2,10}=2, <=100: {11}=1, +Inf: {1000}=1.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, snap.Counts[i], w)
		}
	}
	if snap.Count != 6 || snap.Sum != 1024 {
		t.Errorf("count/sum = %d/%d, want 6/1024", snap.Count, snap.Sum)
	}
	if r.Histogram("h", nil) != h {
		t.Error("same name returned a different histogram")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(9)
	sp := r.StartSpan("stage")
	sp.End()
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics hold values")
	}
	if got := r.StageTimings(); got != nil {
		t.Errorf("nil registry stage timings = %v", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Stages) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var p *Progress
	p.Start()
	p.SetOffset(nil)
	p.Stop()
	if NewProgress(nil, ProgressOptions{}) != nil {
		t.Error("NewProgress(nil) != nil")
	}
}

// TestNoopAllocationFree pins the overhead contract: every metric
// operation against the no-op (nil) sinks is allocation-free, so
// uninstrumented hot paths pay only a nil check.
func TestNoopAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(7)
		sp := r.StartSpan("s")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op metric path allocates %.1f times per run, want 0", allocs)
	}
}

// TestLiveMetricsAllocationFree pins the instrumented fast path too:
// recording into existing counters, gauges and histograms never
// allocates (only registration does).
func TestLiveMetricsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2, 4, 8})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("live metric path allocates %.1f times per run, want 0", allocs)
	}
}

func TestSpansAccumulateInOrder(t *testing.T) {
	r := NewRegistry()
	for _, stage := range []string{"open", "ingest", "detect"} {
		sp := r.StartSpan(stage)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	sp := r.StartSpan("ingest") // second run of an existing stage
	sp.End()

	st := r.StageTimings()
	if len(st) != 3 {
		t.Fatalf("got %d stages, want 3", len(st))
	}
	order := []string{"open", "ingest", "detect"}
	for i, want := range order {
		if st[i].Stage != want {
			t.Errorf("stage %d = %s, want %s (first-start order)", i, st[i].Stage, want)
		}
	}
	if st[1].Runs != 2 {
		t.Errorf("ingest runs = %d, want 2", st[1].Runs)
	}
	if st[0].Total < time.Millisecond {
		t.Errorf("open total = %v, want >= 1ms", st[0].Total)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("hist", []int64{8, 64})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j % 100))
				sp := r.StartSpan("work")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	snap := r.Snapshot()
	if snap.Histograms["hist"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", snap.Histograms["hist"].Count)
	}
	if snap.Stages[0].Runs != 8000 {
		t.Errorf("span runs = %d, want 8000", snap.Stages[0].Runs)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("loopscope_trace_records_total").Add(42)
	r.Counter(ShardMetric(MetricShardRecords, 0)).Add(10)
	r.Counter(ShardMetric(MetricShardRecords, 1)).Add(12)
	r.Gauge("loopscope_engine_workers").Set(4)
	r.Histogram("loopscope_batch_fill", []int64{64, 256}).Observe(100)
	sp := r.StartSpan("detect")
	sp.End()

	var b strings.Builder
	if err := r.writePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE loopscope_trace_records_total counter",
		"loopscope_trace_records_total 42",
		"# TYPE loopscope_detect_shard_records_total counter",
		`loopscope_detect_shard_records_total{shard="0"} 10`,
		`loopscope_detect_shard_records_total{shard="1"} 12`,
		"# TYPE loopscope_engine_workers gauge",
		"loopscope_engine_workers 4",
		"# TYPE loopscope_batch_fill histogram",
		`loopscope_batch_fill_bucket{le="64"} 0`,
		`loopscope_batch_fill_bucket{le="256"} 1`,
		`loopscope_batch_fill_bucket{le="+Inf"} 1`,
		"loopscope_batch_fill_sum 100",
		"loopscope_batch_fill_count 1",
		`loopscope_stage_runs_total{stage="detect"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// The labelled family must have exactly one TYPE header.
	if n := strings.Count(out, "# TYPE loopscope_detect_shard_records_total"); n != 1 {
		t.Errorf("labelled family has %d TYPE headers, want 1", n)
	}
}
