package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressLine(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTraceRecords).Add(1_500_000)
	r.Counter(ShardMetric(MetricShardRecords, 0)).Add(500_000)
	r.Counter(ShardMetric(MetricShardRecords, 1)).Add(1_000_000)

	var sb strings.Builder
	p := NewProgress(r, ProgressOptions{
		Interval: time.Hour, // ticks driven manually via Line
		W:        &sb,
		Offset:   func() (int64, int64) { return 256 << 20, 512 << 20 },
	})
	p.lastAt = time.Now().Add(-2 * time.Second)

	line := p.line(time.Now())
	for _, want := range []string{"1.50M records", "50.0% of 512.0 MiB", "ETA", "shard skew 1.33"} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}

	// Second tick: rate derives from the delta since the first.
	r.Counter(MetricTraceRecords).Add(1_000_000)
	line = p.line(p.lastAt.Add(time.Second))
	if !strings.Contains(line, "2.50M records") {
		t.Errorf("second line missing total: %s", line)
	}
	if !strings.Contains(line, "(1.00M/s)") {
		t.Errorf("second line missing rate: %s", line)
	}
}

func TestProgressWithoutOffset(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTraceRecords).Add(10)
	p := NewProgress(r, ProgressOptions{Interval: time.Hour, W: &strings.Builder{}})
	p.lastAt = time.Now().Add(-time.Second)
	line := p.line(time.Now())
	if strings.Contains(line, "%") || strings.Contains(line, "ETA") {
		t.Errorf("offset fields present without an offset source: %s", line)
	}
	if !strings.Contains(line, "10 records") {
		t.Errorf("line missing record count: %s", line)
	}
}

func TestProgressStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTraceRecords).Add(3)
	var sb safeBuilder
	p := NewProgress(r, ProgressOptions{Interval: 10 * time.Millisecond, W: &sb})
	p.Start()
	time.Sleep(35 * time.Millisecond)
	p.Stop()
	out := sb.String()
	if n := strings.Count(out, "progress:"); n < 2 {
		t.Errorf("expected at least 2 progress lines (ticks + final), got %d:\n%s", n, out)
	}
}

// safeBuilder is a strings.Builder safe for cross-goroutine use (the
// reporter goroutine writes, the test reads after Stop).
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
