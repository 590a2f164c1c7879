// Command lsq queries a loopscoped daemon's versioned HTTP API
// (/api/v1) through the typed pkg/loopscope client and prints the
// decoded result as JSON — the scriptable counterpart to curl that
// also exercises the envelope/error protocol end to end, which is
// exactly what the smoke script wants.
//
// Usage:
//
//	lsq -addr http://127.0.0.1:9090 health
//	lsq -addr … loops [-limit n] [-cursor c] [-source s] [-walk]
//	lsq -addr … sources
//	lsq -addr … stats [-window 1h] [-source s] [-metric duration]
//	lsq -addr … trace [id]
//
// Pointed at a loopscope-agg aggregator instead, the fleet family
// queries the cluster-level view:
//
//	lsq -addr … fleet health
//	lsq -addr … fleet loops [-limit n] [-prefix p]
//	lsq -addr … fleet vantages
//	lsq -addr … fleet stats [-window 1h] [-vantage v] [-metric duration]
//	lsq -addr … fleet latency [-vantage v] [-segment s] [-json]
//
// fleet latency is the one subcommand that defaults to a human table
// (per-segment pipeline latency quantiles per vantage); -json restores
// the raw document for scripting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"loopscope/pkg/loopscope"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9090", "base URL of the loopscoped HTTP API")
	timeout := flag.Duration("timeout", 10*time.Second, "request timeout")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: lsq [-addr URL] <health|loops|sources|stats|trace|fleet> [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := loopscope.New(*addr)

	var (
		out any
		err error
	)
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "health":
		out, err = c.Health(ctx)
	case "loops":
		out, err = runLoops(ctx, c, args)
	case "sources":
		out, err = c.Sources(ctx)
	case "stats":
		out, err = runStats(ctx, c, args)
	case "trace":
		if len(args) > 0 {
			out, err = c.Trace(ctx, args[0])
		} else {
			out, err = c.TraceIDs(ctx)
		}
	case "fleet":
		out, err = runFleet(ctx, c, args)
	default:
		fmt.Fprintf(os.Stderr, "lsq: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsq:", err)
		os.Exit(1)
	}
	// A nil result means the subcommand already wrote its own (human)
	// rendering to stdout — fleet latency's table mode.
	if out == nil {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "lsq:", err)
		os.Exit(1)
	}
}

// loopsOut flattens a page (or a full walk) for scripting: events
// plus the pagination coordinates that produced them.
type loopsOut struct {
	Events     []loopscope.LoopEvent `json:"events"`
	Total      int64                 `json:"total"`
	NextCursor int64                 `json:"nextCursor,omitempty"`
	Pages      int                   `json:"pages"`
}

func runLoops(ctx context.Context, c *loopscope.Client, args []string) (any, error) {
	fs := flag.NewFlagSet("loops", flag.ExitOnError)
	limit := fs.Int("limit", 0, "page size (server default 100)")
	cursor := fs.Int64("cursor", 0, "resume after this sequence number")
	source := fs.String("source", "", "only events from this source")
	walk := fs.Bool("walk", false, "follow nextCursor until the ring is exhausted")
	fs.Parse(args)
	out := loopsOut{Events: []loopscope.LoopEvent{}}
	q := loopscope.LoopsQuery{Limit: *limit, Cursor: *cursor, Source: *source}
	for {
		page, err := c.Loops(ctx, q)
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, page.Events...)
		out.Total = page.Total
		out.NextCursor = page.NextCursor
		out.Pages++
		if !*walk || page.NextCursor == 0 {
			return out, nil
		}
		q.Cursor = page.NextCursor
	}
}

// runFleet dispatches the fleet subcommands against an aggregator.
func runFleet(ctx context.Context, c *loopscope.Client, args []string) (any, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("usage: lsq fleet <health|loops|vantages|stats|latency> [flags]")
	}
	switch sub, rest := args[0], args[1:]; sub {
	case "health":
		return c.FleetHealth(ctx)
	case "loops":
		fs := flag.NewFlagSet("fleet loops", flag.ExitOnError)
		limit := fs.Int("limit", 0, "keep only the newest n fleet loops")
		prefix := fs.String("prefix", "", "only loops for this destination prefix")
		fs.Parse(rest)
		loops, err := c.FleetLoops(ctx, loopscope.FleetLoopsQuery{Limit: *limit, Prefix: *prefix})
		if err != nil {
			return nil, err
		}
		return loopscope.FleetLoopList{Loops: loops}, nil
	case "vantages":
		vs, err := c.FleetVantages(ctx)
		if err != nil {
			return nil, err
		}
		return loopscope.FleetVantageList{Vantages: vs}, nil
	case "stats":
		fs := flag.NewFlagSet("fleet stats", flag.ExitOnError)
		window := fs.String("window", "", "time window (e.g. 5m, 1h; empty = all)")
		vantage := fs.String("vantage", "", "only loops reported by this vantage")
		metric := fs.String("metric", "", "single metric (duration, ttl_delta, streams, replicas, escape_delay)")
		fs.Parse(rest)
		return c.FleetStats(ctx, loopscope.FleetStatsQuery{Window: *window, Vantage: *vantage, Metric: *metric})
	case "latency":
		fs := flag.NewFlagSet("fleet latency", flag.ExitOnError)
		vantage := fs.String("vantage", "", "only this vantage's pipeline latencies")
		segment := fs.String("segment", "", "single pipeline segment (e.g. detect_cluster)")
		asJSON := fs.Bool("json", false, "print the raw latency document instead of a table")
		fs.Parse(rest)
		fl, err := c.FleetLatency(ctx, loopscope.FleetLatencyQuery{Vantage: *vantage, Segment: *segment})
		if err != nil {
			return nil, err
		}
		if *asJSON {
			return fl, nil
		}
		printLatencyTable(fl)
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown fleet subcommand %q (want health, loops, vantages, stats or latency)", sub)
	}
}

// printLatencyTable renders the latency document as a human table:
// one row per (pipeline segment, vantage), quantiles as durations,
// the slowest exemplar as an event/trail ID an operator can feed to
// `lsq trace` against the originating daemon.
func printLatencyTable(fl *loopscope.FleetLatency) {
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "SEGMENT\tVANTAGE\tCOUNT\tCLAMPED\tP50\tP90\tP99\tSLOWEST")
	for _, row := range fl.Segments {
		slowest := ""
		if len(row.Exemplars) > 0 {
			e := row.Exemplars[0]
			slowest = fmt.Sprintf("%s (%s)", e.EventID, time.Duration(e.Ns).Round(time.Microsecond))
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
			row.Segment, row.Vantage, row.Count, row.Clamped,
			time.Duration(row.Quantiles["p50"]).Round(time.Microsecond),
			time.Duration(row.Quantiles["p90"]).Round(time.Microsecond),
			time.Duration(row.Quantiles["p99"]).Round(time.Microsecond),
			slowest)
	}
	w.Flush()
	if len(fl.Segments) == 0 {
		fmt.Println("no provenance-carrying observations yet")
	}
}

func runStats(ctx context.Context, c *loopscope.Client, args []string) (any, error) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	window := fs.String("window", "", "time window (e.g. 5m, 1h; empty = all)")
	source := fs.String("source", "", "only loops from this source")
	metric := fs.String("metric", "", "single metric (duration, ttl_delta, streams, replicas, escape_delay)")
	fs.Parse(args)
	return c.Stats(ctx, loopscope.StatsQuery{Window: *window, Source: *source, Metric: *metric})
}
