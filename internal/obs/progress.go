package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// ProgressOptions configures a Progress reporter. The zero value
// reports every 2 seconds to stderr.
type ProgressOptions struct {
	// Interval is the reporting period; <= 0 selects 2 seconds.
	Interval time.Duration
	// W receives the progress lines; nil selects os.Stderr.
	W io.Writer
	// Offset optionally reports (bytes consumed, total bytes) of the
	// input, enabling the percentage and ETA fields. Set it up front
	// or later via SetOffset once the input is open.
	Offset func() (offset, size int64)
}

// Progress periodically reports pipeline liveness on one line:
// records ingested and the current rate, percent of the input
// consumed with an ETA (when a byte-offset source is available), and
// the detection shard skew (max/mean of the per-shard record
// counters — 1.00 is a perfectly balanced fan-out). It reads
// everything from the registry the instrumented layers feed, so it
// works with any combination of instrumented stages. A nil *Progress
// (from a nil registry) is inert.
type Progress struct {
	reg      *Registry
	interval time.Duration
	w        io.Writer

	mu     sync.Mutex
	offset func() (int64, int64)

	stop chan struct{}
	done chan struct{}

	// previous tick's readings, for rate computation.
	lastAt   time.Time
	lastRecs int64
	lastOff  int64
}

// NewProgress returns a reporter over r. A nil registry yields a nil
// reporter whose Start/Stop/SetOffset are no-ops, mirroring the
// package's nil-safety contract.
func NewProgress(r *Registry, opts ProgressOptions) *Progress {
	if r == nil {
		return nil
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.W == nil {
		opts.W = os.Stderr
	}
	return &Progress{
		reg:      r,
		interval: opts.Interval,
		w:        opts.W,
		offset:   opts.Offset,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// SetOffset installs (or replaces) the byte-offset source; safe to
// call while the reporter runs.
func (p *Progress) SetOffset(fn func() (offset, size int64)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.offset = fn
	p.mu.Unlock()
}

// Start launches the reporting goroutine. Call Stop to end it.
func (p *Progress) Start() {
	if p == nil {
		return
	}
	p.lastAt = time.Now()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case now := <-t.C:
				fmt.Fprintln(p.w, p.Line(now))
			}
		}
	}()
}

// Stop ends the reporting goroutine and emits one final line with the
// end-of-run totals.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	fmt.Fprintln(p.w, p.Line(time.Now()))
}

// Line formats one progress report for the given instant and advances
// the rate baseline. Exposed for tests; normal use goes through
// Start/Stop.
func (p *Progress) Line(now time.Time) string {
	snap := p.reg.Snapshot()
	recs := snap.Counters[MetricTraceRecords]

	var b strings.Builder
	fmt.Fprintf(&b, "progress: %s records", humanCount(recs))

	elapsed := now.Sub(p.lastAt)
	if elapsed > 0 {
		rate := float64(recs-p.lastRecs) / elapsed.Seconds()
		fmt.Fprintf(&b, " (%s/s)", humanCount(int64(rate)))
	}

	p.mu.Lock()
	offsetFn := p.offset
	p.mu.Unlock()
	var off int64
	if offsetFn != nil {
		var size int64
		off, size = offsetFn()
		if size > 0 {
			fmt.Fprintf(&b, "  %.1f%% of %s", 100*float64(off)/float64(size), humanBytes(size))
			if byteRate := float64(off-p.lastOff) / elapsed.Seconds(); byteRate > 0 && off < size {
				eta := time.Duration(float64(size-off) / byteRate * float64(time.Second))
				fmt.Fprintf(&b, "  ETA %s", humanETA(eta))
			}
		}
	}
	if skew, ok := shardSkew(snap); ok {
		fmt.Fprintf(&b, "  shard skew %.2f", skew)
	}

	p.lastAt, p.lastRecs, p.lastOff = now, recs, off
	return b.String()
}

// shardSkew computes max/mean over the per-shard record counters; ok
// is false until at least one shard has counted something.
func shardSkew(snap Snapshot) (float64, bool) {
	var max, sum int64
	n := 0
	prefix := MetricShardRecords + "{"
	for name, v := range snap.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n++
		sum += v
		if v > max {
			max = v
		}
	}
	if n == 0 || sum == 0 {
		return 0, false
	}
	return float64(max) / (float64(sum) / float64(n)), true
}

// humanCount renders a count compactly (821, 12.4k, 3.20M, 1.85G).
func humanCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e4:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// humanBytes renders a byte size in binary units.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// humanETA renders a duration as m:ss or h:mm:ss.
func humanETA(d time.Duration) string {
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, s)
	}
	return fmt.Sprintf("%d:%02d", m, s)
}
