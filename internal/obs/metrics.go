package obs

import "sync/atomic"

// Counter is a monotonically increasing metric (records read, bytes
// decoded, nanoseconds spent blocked). The zero value is ready to use;
// a nil *Counter is a valid no-op sink.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must not be negative; the counter does not check).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (queue depth, live salvage
// error count). The zero value is ready to use; a nil *Gauge is a
// valid no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at
// registration (latencies, batch fills, record sizes). Fixed bounds
// keep Observe allocation-free and lock-free: one linear scan over a
// handful of int64 bounds plus two atomic adds. A nil *Histogram is a
// valid no-op sink.
type Histogram struct {
	// bounds are the ascending inclusive upper bounds; observations
	// beyond the last bound land in the implicit +Inf bucket.
	bounds []int64
	// counts[i] is the number of observations in bucket i; the last
	// element is the +Inf bucket.
	counts []atomic.Int64
	sum    atomic.Int64
}

// newHistogram builds a histogram with the given bounds (copied).
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// histogramSnapshot is a point-in-time copy of a histogram.
type histogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one more entry
	// than Bounds (the +Inf bucket) and is per-bucket, not cumulative.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}
