// Command fibscan detects routing loops statically from FIB snapshot
// files (backbonesim -fib-snapshots, or anything emitting the shared
// JSON format) and optionally cross-validates them against the
// trace-based detector's report.
//
// Usage:
//
//	fibscan [flags] <snapshots.json>
//
// Examples:
//
//	fibscan snaps.json                         # scan, human-readable
//	fibscan -json snaps.json                   # machine-readable
//	fibscan -loops loops.json snaps.json       # diff vs loopdetect -json
//	fibscan -loops loops.json -fail-on trace-only snaps.json
//
// With -loops, every loop either detector found is classified:
// confirmed (tables and packets agree), table-only (the tables show a
// cycle no packet confirmed — no traffic was addressed into it, or it
// healed before any packet arrived, or it never crossed the monitored
// vantage), or trace-only (packets looped but no snapshot shows a
// cycle — a convergence race shorter than the snapshot cadence, or a
// loop outside the snapshotted region). -fail-on turns a non-empty
// bucket into exit status 1 for CI gating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"loopscope/internal/fibscan"
	"loopscope/internal/routing"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "machine-readable JSON output")
		loopFile = flag.String("loops", "", "loopdetect -json report to cross-validate against")
		slack    = flag.Duration("slack", time.Second, "window slack when matching table loops to trace loops")
		mergeGap = flag.Duration("merge-gap", 2*time.Second, "snapshot gap above which one cycle counts as two loop occurrences")
		failOn   = flag.String("fail-on", "none", "exit 1 if this diff bucket is non-empty: none, trace-only, table-only, any")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fibscan [flags] <snapshots.json>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *loopFile, *jsonOut, *slack, *mergeGap, *failOn); err != nil {
		if err == errFailOn {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "fibscan:", err)
		os.Exit(1)
	}
}

var errFailOn = fmt.Errorf("fail-on bucket non-empty")

// output is the -json document.
type output struct {
	Network    string              `json:"network,omitempty"`
	Snapshots  int                 `json:"snapshots"`
	Reports    []*fibscan.Report   `json:"reports"`
	TableLoops []fibscan.TableLoop `json:"tableLoops"`
	// Diff is present only when -loops was given.
	Diff *jsonDiff `json:"diff,omitempty"`
}

// jsonDiff mirrors fibscan.Diff with trace loops in the loopdetect
// wire form (prefix string, ns windows).
type jsonDiff struct {
	Confirmed []jsonConfirmation  `json:"confirmed"`
	TableOnly []fibscan.TableLoop `json:"tableOnly"`
	TraceOnly []jsonTraceLoop     `json:"traceOnly"`
}

type jsonConfirmation struct {
	Table  fibscan.TableLoop `json:"table"`
	Traces []jsonTraceLoop   `json:"traces"`
}

type jsonTraceLoop struct {
	Prefix  string `json:"prefix"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

func toJSONTraces(in []fibscan.TraceLoop) []jsonTraceLoop {
	out := make([]jsonTraceLoop, 0, len(in))
	for _, t := range in {
		out = append(out, jsonTraceLoop{Prefix: t.Prefix.String(), StartNs: int64(t.Start), EndNs: int64(t.End)})
	}
	return out
}

func run(w io.Writer, snapPath, loopPath string, jsonOut bool, slack, mergeGap time.Duration, failOn string) error {
	switch failOn {
	case "none", "trace-only", "table-only", "any":
	default:
		return fmt.Errorf("unknown -fail-on bucket %q", failOn)
	}

	// One snapshot is held at a time; only its report is kept.
	in, err := os.Open(snapPath)
	if err != nil {
		return err
	}
	defer in.Close()
	snaps := fibscan.NewReader(in)
	var timeline fibscan.Timeline
	var reports []*fibscan.Report
	if err := snaps.Each(func(s *fibscan.Snapshot) error {
		reports = append(reports, timeline.Step(s))
		return nil
	}); err != nil {
		return err
	}
	table := fibscan.Collate(reports, mergeGap)

	out := output{
		Network:    snaps.Network(),
		Snapshots:  len(reports),
		Reports:    reports,
		TableLoops: table,
	}

	var diff *fibscan.Diff
	if loopPath != "" {
		traces, err := readTraceLoops(loopPath)
		if err != nil {
			return err
		}
		diff = fibscan.CrossValidate(table, traces, fibscan.DiffOptions{Slack: slack})
		jd := &jsonDiff{
			TableOnly: diff.TableOnly,
			TraceOnly: toJSONTraces(diff.TraceOnly),
		}
		for _, c := range diff.Confirmed {
			jd.Confirmed = append(jd.Confirmed, jsonConfirmation{Table: c.Table, Traces: toJSONTraces(c.Traces)})
		}
		out.Diff = jd
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		printText(w, &out, diff)
	}

	if diff != nil {
		failed := false
		switch failOn {
		case "trace-only":
			failed = len(diff.TraceOnly) > 0
		case "table-only":
			failed = len(diff.TableOnly) > 0
		case "any":
			failed = len(diff.TraceOnly) > 0 || len(diff.TableOnly) > 0
		}
		if failed {
			fmt.Fprintf(w, "fail-on %s: bucket non-empty\n", failOn)
			return errFailOn
		}
	}
	return nil
}

// readTraceLoops pulls the loop list out of the loopdetect -json report
// at path.
func readTraceLoops(path string) ([]fibscan.TraceLoop, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	loops, err := parseTraceLoops(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return loops, nil
}

// parseTraceLoops reads a loopdetect -json report: one JSON document,
// of which only the loops' prefixes and windows are decoded and the
// rest is ignored.
func parseTraceLoops(r io.Reader) ([]fibscan.TraceLoop, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Loops []struct {
			Prefix  string `json:"prefix"`
			StartNs int64  `json:"startNs"`
			EndNs   int64  `json:"endNs"`
		} `json:"loops"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	out := make([]fibscan.TraceLoop, 0, len(doc.Loops))
	for i, l := range doc.Loops {
		p, err := routing.ParsePrefix(l.Prefix)
		if err != nil {
			return nil, fmt.Errorf("loop %d: %w", i, err)
		}
		out = append(out, fibscan.TraceLoop{
			Prefix: p,
			Start:  time.Duration(l.StartNs),
			End:    time.Duration(l.EndNs),
		})
	}
	return out, nil
}

func printText(w io.Writer, out *output, diff *fibscan.Diff) {
	if out.Network != "" {
		fmt.Fprintf(w, "network: %s\n", out.Network)
	}
	fmt.Fprintf(w, "snapshots: %d\n", out.Snapshots)
	for _, rep := range out.Reports {
		fmt.Fprintf(w, "t=%v routers=%d atoms=%d cycles=%d\n",
			rep.Taken(), rep.Routers, rep.Atoms, len(rep.Cycles))
		for i := range rep.Cycles {
			c := &rep.Cycles[i]
			fmt.Fprintf(w, "  cycle len=%d %v\n", c.Len(), c.Routers)
			for _, r := range c.Ranges {
				fmt.Fprintf(w, "    range %s\n", r)
			}
			for _, p := range c.Prefixes {
				fmt.Fprintf(w, "    prefix %s\n", p)
			}
		}
		for _, warn := range rep.Warnings {
			fmt.Fprintf(w, "  warning: %s\n", warn)
		}
	}
	fmt.Fprintf(w, "table loops: %d\n", len(out.TableLoops))
	for i := range out.TableLoops {
		l := &out.TableLoops[i]
		fmt.Fprintf(w, "  loop %v seen [%v, %v] over %d snapshot(s), %d prefix(es)\n",
			l.Routers, l.FirstSeen, l.LastSeen, l.Snapshots, len(l.Prefixes))
	}
	if diff == nil {
		return
	}
	fmt.Fprintf(w, "cross-validation: confirmed=%d table-only=%d trace-only=%d\n",
		len(diff.Confirmed), len(diff.TableOnly), len(diff.TraceOnly))
	for i := range diff.Confirmed {
		c := &diff.Confirmed[i]
		fmt.Fprintf(w, "  confirmed %v by %d trace loop(s)\n", c.Table.Routers, len(c.Traces))
	}
	for i := range diff.TableOnly {
		l := &diff.TableOnly[i]
		fmt.Fprintf(w, "  table-only %v [%v, %v]\n", l.Routers, l.FirstSeen, l.LastSeen)
	}
	for i := range diff.TraceOnly {
		l := &diff.TraceOnly[i]
		fmt.Fprintf(w, "  trace-only %s [%v, %v]\n", l.Prefix, l.Start, l.End)
	}
}
