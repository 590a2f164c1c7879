package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one (metric, workload) row of new against base:
//
//	regressed   new's median is worse than base's by more than the bound
//	unresolved  the medians are within the bound, but either side's
//	            interquartile spread is wider than the bound and the runs
//	            overlap, so "no regression" cannot be told from noise
//	ok          otherwise
func verdict(m metricDef, base, cur sample) (delta float64, v string) {
	if base.Median == 0 {
		return 0, "unresolved"
	}
	delta = (cur.Median - base.Median) / base.Median
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if worse > m.Bound {
		return delta, "regressed"
	}
	// Every run of new better than every run of base settles it however
	// wide the spread.
	allBetter := cur.Max < base.Min
	if m.Better == "higher" {
		allBetter = cur.Min > base.Max
	}
	if !allBetter && (base.spread() > m.Bound || cur.spread() > m.Bound) {
		return delta, "unresolved"
	}
	return delta, "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) — never
// an average across workloads — and reports whether every row is ok.
func compareFiles(out io.Writer, basePath, curPath string) (bool, error) {
	base, err := readResult(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(curPath)
	if err != nil {
		return false, err
	}
	if base.Traced || cur.Traced {
		return false, fmt.Errorf("-compare judges end-to-end results; traced runs carry per-layer metrics only")
	}
	if !base.Comparable || !cur.Comparable || base.Seconds != cur.Seconds {
		return false, fmt.Errorf("results are not comparable (scale %g/%g, seconds %g/%g)", base.Scale, cur.Scale, base.Seconds, cur.Seconds)
	}
	curByName := make(map[string]workloadResult)
	for _, w := range cur.Workloads {
		curByName[w.Name] = w
	}
	allOK := true
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tnew median [q1, q3] n\tdelta (of base)\tbound\tverdict")
	for _, bw := range base.Workloads {
		cw, ok := curByName[bw.Name]
		if !ok {
			continue
		}
		if cw.Failed > bw.Failed {
			fmt.Fprintf(tw, "%s\tops_failed\tcount\t%d of %d\t%d of %d\t\t\tregressed\n", bw.Name, bw.Failed, bw.Attempted, cw.Failed, cw.Attempted)
			allOK = false
		}
		for _, m := range endToEnd {
			b, c := bw.Metrics[m.Name], cw.Metrics[m.Name]
			if !m.appliesTo(bw.Name) || b.N == 0 || c.N == 0 {
				continue
			}
			delta, v := verdict(m, b, c)
			if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.1f%% of %.5g\t%.0f%%\t%s\n",
				bw.Name, m.Name, m.Unit, b.Median, b.Q1, b.Q3, b.N, c.Median, c.Q1, c.Q3, c.N,
				100*delta, b.Median, 100*m.Bound, v)
		}
	}
	return allOK, tw.Flush()
}
