package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Snapshot is a point-in-time copy of everything the registry holds,
// the common input for both exposition formats and for the progress
// reporter.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]histogramSnapshot `json:"histograms"`
	Stages     []StageTiming                `json:"stages"`
}

// Snapshot copies the registry's current state. Nil-safe: a nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]histogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	r.mu.Unlock()
	s.Stages = r.StageTimings()
	return s
}

// baseName strips a Prometheus label suffix: the series
// `x_total{shard="3"}` belongs to metric family `x_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// splitSeries separates a series name into its family and its label
// body (without braces): `x{shard="3"}` -> (`x`, `shard="3"`).
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// writePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms with cumulative _bucket/_sum/_count series, and
// stage timings as loopscope_stage_seconds_total /
// loopscope_stage_runs_total series labelled by stage. Output is
// deterministic (names sorted, stages in pipeline order).
func (r *Registry) writePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	snap := r.Snapshot()

	header := func(base, kind string) {
		fmt.Fprintf(bw, "# HELP %s %s\n", base, helpFor(base))
		fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
	}
	writeFamily := func(kind string, values map[string]int64) {
		lastBase := ""
		for _, name := range sortedKeys(values) {
			if b := baseName(name); b != lastBase {
				header(b, kind)
				lastBase = b
			}
			fmt.Fprintf(bw, "%s %d\n", name, values[name])
		}
	}
	writeFamily("counter", snap.Counters)
	writeFamily("gauge", snap.Gauges)

	// Histogram series may carry labels; the label body must stay
	// inside the braces of each sample (base_bucket{labels,le="x"}),
	// never in the family headers.
	lastBase := ""
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		base, labels := splitSeries(name)
		if base != lastBase {
			header(base, "histogram")
			lastBase = base
		}
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			if labels == "" {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", base, le, cum)
			} else {
				fmt.Fprintf(bw, "%s_bucket{%s,le=%q} %d\n", base, labels, le, cum)
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		fmt.Fprintf(bw, "%s_sum%s %d\n", base, suffix, h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", base, suffix, h.Count)
	}

	if len(snap.Stages) > 0 {
		header("loopscope_stage_seconds_total", "counter")
		for _, st := range snap.Stages {
			fmt.Fprintf(bw, "loopscope_stage_seconds_total{stage=%q} %.9f\n",
				st.Stage, st.Total.Seconds())
		}
		header("loopscope_stage_runs_total", "counter")
		for _, st := range snap.Stages {
			fmt.Fprintf(bw, "loopscope_stage_runs_total{stage=%q} %d\n", st.Stage, st.Runs)
		}
	}
	return bw.Flush()
}

// writeJSON writes the snapshot as one indented JSON document (the
// /debug/vars payload; also usable for archiving a run's metrics).
func (r *Registry) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
