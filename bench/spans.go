package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call (or batch of calls) into a layer's public
// functions, recorded from bench code only.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Work is what the call processed: records, events or snapshots.
	Work int64 `json:"work"`
	// Allocs and Bytes are runtime.MemStats deltas (Mallocs,
	// TotalAlloc) across the span, children included.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Pipeline marks spans that recreate the workload's own path and
	// so count towards layers.coverage; probes of layers the workload
	// does not cross do not.
	Pipeline bool `json:"pipeline"`
}

// recorder keeps spans in memory until the run ends. It is driven from
// one goroutine; concurrency inside a layer is the layer's business.
type recorder struct {
	workload string
	pipeline bool
	epoch    time.Time
	spans    []span
	stack    []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// span times fn, which returns the amount of work it did.
func (r *recorder) span(name string, fn func() int64) {
	id := len(r.spans)
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Pipeline: r.pipeline})
	r.stack = append(r.stack, id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Since(r.epoch)
	work := fn()
	end := time.Since(r.epoch)
	runtime.ReadMemStats(&after)
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[id]
	s.StartNs, s.EndNs, s.Work = int64(start), int64(end), work
	s.Allocs, s.Bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
}

// has reports whether any span with this name was recorded.
func (r *recorder) has(name string) bool {
	for i := range r.spans {
		if r.spans[i].Name == name {
			return true
		}
	}
	return false
}

// layerTotals is a span name's summed self cost and work.
type layerTotals struct {
	SelfNs, Work  int64
	Allocs, Bytes int64
	Spans         int
}

// totals computes, per span name, self time and self allocations (the
// span's own minus what its child spans cover) and total work.
func (r *recorder) totals() map[string]*layerTotals {
	childNs := make([]int64, len(r.spans))
	childAllocs := make([]int64, len(r.spans))
	childBytes := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
			childAllocs[s.Parent] += int64(s.Allocs)
			childBytes[s.Parent] += int64(s.Bytes)
		}
	}
	out := make(map[string]*layerTotals)
	for _, s := range r.spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		t.SelfNs += s.EndNs - s.StartNs - childNs[s.ID]
		t.Allocs += int64(s.Allocs) - childAllocs[s.ID]
		t.Bytes += int64(s.Bytes) - childBytes[s.ID]
		t.Work += s.Work
		t.Spans++
	}
	return out
}

// pipelineNs sums the root pipeline spans, i.e. every pipeline span's
// self time.
func (r *recorder) pipelineNs() int64 {
	var ns int64
	for _, s := range r.spans {
		if s.Pipeline && s.Parent < 0 {
			ns += s.EndNs - s.StartNs
		}
	}
	return ns
}

// derive fills in every "<span>.<ns|allocs|bytes>_per_<x>" and
// "<span>.ns" metric of defs from the recorded spans; metrics already
// present in out (set explicitly) are left alone.
func (r *recorder) derive(defs []metricDef, out map[string]sample) {
	totals := r.totals()
	for _, d := range defs {
		if _, ok := out[d.Name]; ok {
			continue
		}
		dot := strings.LastIndexByte(d.Name, '.')
		t := totals[d.Name[:dot]]
		if t == nil || t.Work == 0 {
			continue
		}
		var v float64
		switch field := d.Name[dot+1:]; {
		case field == "ns":
			v = float64(t.SelfNs) / float64(t.Spans)
		case strings.HasPrefix(field, "ns_per_"):
			v = float64(t.SelfNs) / float64(t.Work)
		case strings.HasPrefix(field, "allocs_per_"):
			v = float64(t.Allocs) / float64(t.Work)
		case strings.HasPrefix(field, "bytes_per_"):
			v = float64(t.Bytes) / float64(t.Work)
		default:
			continue
		}
		out[d.Name] = sample{Unit: d.Unit, N: int(t.Work), Min: v, Q1: v, Median: v, Q3: v, Max: v}
	}
}

func (r *recorder) write(path string) error {
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
