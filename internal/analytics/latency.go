package analytics

import (
	"sort"
	"sync"

	"loopscope/internal/obs/provenance"
	"loopscope/pkg/loopscope"
)

// This file is the pipeline-provenance analytics: per-hop-segment
// latency sketches keyed by (segment, vantage), fed by the fleet
// aggregator from the provenance records riding on ingested events.
// Like the collector's fleet stats, every ingredient is mergeable and
// arrival-order-independent — sketch adds commute, clamp counts are
// plain sums, and exemplar selection is a deterministic top-K — so a
// journal replay (or a merge across aggregators) reproduces the same
// latency document byte for byte regardless of observation order.

// latencyExemplarCap bounds the slowest-observation exemplars kept per
// (segment, vantage) row. Four is enough to hand an operator concrete
// trail IDs for the slow tail without growing the document.
const latencyExemplarCap = 4

// latencyCell is one (segment, vantage) accumulation.
type latencyCell struct {
	Sketch    sketch                      `json:"sketch"`
	Clamped   uint64                      `json:"clamped,omitempty"`
	Exemplars []loopscope.LatencyExemplar `json:"exemplars,omitempty"`
}

// LatencyStore accumulates per-segment, per-vantage latency sketches.
// Safe for concurrent use; the zero value is not usable, construct
// with NewLatencyStore.
type LatencyStore struct {
	mu    sync.Mutex
	cells map[string]map[string]*latencyCell // segment -> vantage
}

// NewLatencyStore returns an empty store.
func NewLatencyStore() *LatencyStore {
	return &LatencyStore{cells: make(map[string]map[string]*latencyCell)}
}

// Observe folds one segment latency in. A clamped observation (the
// caller detected a negative cross-process delta) only increments the
// clamp counter — it never reaches the sketch, so skew cannot corrupt
// the histogram's low buckets. Nil-safe: a nil store ignores the call.
func (s *LatencyStore) Observe(segment, vantage, eventID string, ns int64, clamped bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cellLocked(segment, vantage)
	if clamped {
		c.Clamped++
		return
	}
	c.Sketch.add(ns)
	c.noteExemplar(eventID, ns)
}

func (s *LatencyStore) cellLocked(segment, vantage string) *latencyCell {
	byV := s.cells[segment]
	if byV == nil {
		byV = make(map[string]*latencyCell)
		s.cells[segment] = byV
	}
	c := byV[vantage]
	if c == nil {
		c = &latencyCell{}
		byV[vantage] = c
	}
	return c
}

// noteExemplar keeps the slowest latencyExemplarCap observations,
// ordered slowest first with event-ID ties broken lexically — a pure
// function of the observation *set*, so arrival order cannot change
// which exemplars survive.
func (c *latencyCell) noteExemplar(eventID string, ns int64) {
	if eventID == "" {
		return
	}
	for _, e := range c.Exemplars {
		if e.EventID == eventID && e.Ns == ns {
			return // replay-merge safety: the same observation twice
		}
	}
	c.Exemplars = append(c.Exemplars, loopscope.LatencyExemplar{EventID: eventID, Ns: ns})
	sort.Slice(c.Exemplars, func(i, j int) bool {
		if c.Exemplars[i].Ns != c.Exemplars[j].Ns {
			return c.Exemplars[i].Ns > c.Exemplars[j].Ns
		}
		return c.Exemplars[i].EventID < c.Exemplars[j].EventID
	})
	if len(c.Exemplars) > latencyExemplarCap {
		c.Exemplars = c.Exemplars[:latencyExemplarCap]
	}
}

// Snapshot renders the latency document. Optional filters narrow to
// one vantage and/or one segment; empty strings keep everything.
func (s *LatencyStore) Snapshot(vantage, segment string) *loopscope.FleetLatency {
	st := &loopscope.FleetLatency{ErrorBound: sketchAlpha, Segments: []loopscope.LatencySegment{}}
	if s == nil {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := make([]string, 0, len(s.cells))
	for seg := range s.cells {
		if segment != "" && seg != segment {
			continue
		}
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool {
		ri, rj := provenance.SegmentRank(segs[i]), provenance.SegmentRank(segs[j])
		if ri != rj {
			return ri < rj
		}
		return segs[i] < segs[j]
	})
	for _, seg := range segs {
		byV := s.cells[seg]
		vantages := make([]string, 0, len(byV))
		for v := range byV {
			if vantage != "" && v != vantage {
				continue
			}
			vantages = append(vantages, v)
		}
		sort.Strings(vantages)
		for _, v := range vantages {
			c := byV[v]
			ms := summarize(&c.Sketch)
			row := loopscope.LatencySegment{
				Segment: seg, Vantage: v, Count: ms.Count, Clamped: c.Clamped,
				Mean: ms.Mean, Min: ms.Min, Max: ms.Max,
				Quantiles: ms.Quantiles, Buckets: ms.Buckets,
			}
			if len(c.Exemplars) > 0 {
				row.Exemplars = append([]loopscope.LatencyExemplar(nil), c.Exemplars...)
			}
			st.Segments = append(st.Segments, row)
		}
	}
	return st
}
