package main

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/obs/flight"
)

// runExplain re-runs detection with a full-fidelity flight recorder
// attached (no replica sampling, deep rings) and prints the selected
// loop's decision trail: every stream open, replica append, validation,
// merge and the finalization, timestamped on the trace clock.
//
// sel picks the loop: a decimal index into the detected-loop list, a
// loop event ID (as printed by loopscoped's journal and /api/v1/loops —
// pass -explain-source to reproduce the daemon's ID namespace), or
// "all". Anything else lists the loops with their IDs and fails.
func runExplain(path string, cfg core.Config, sel, source string, w io.Writer) error {
	// Offline explanation wants the whole story, not a sampled sketch:
	// record every replica append and keep rings deep enough that the
	// window seal never wraps on a normal trace.
	fr := flight.New(flight.Options{
		PerShardEvents: 1 << 16,
		SampleHead:     1 << 20,
		SampleEvery:    1,
		TrailCap:       1 << 12,
	})
	sc, err := scan(path, cfg, false, core.WithFlight(fr))
	if err != nil {
		return err
	}
	res := sc.res

	// Seal a trail per detected loop under the same deterministic ID the
	// daemon journals (empty source unless -explain-source).
	margin := cfg.MergeWindow + 2*cfg.MaxReplicaGap
	type sealed struct {
		loop  *core.Loop
		trail *flight.Trail
	}
	trails := make([]sealed, 0, len(res.Loops))
	for _, l := range res.Loops {
		id := flight.LoopID(source, l.Prefix.String(), int64(l.Start))
		trails = append(trails, sealed{loop: l, trail: fr.Seal(id, l.Prefix, l.Start, l.End, margin)})
	}

	if sel == "all" {
		for i, s := range trails {
			if i > 0 {
				fmt.Fprintln(w)
			}
			flight.RenderTrail(w, s.trail)
		}
		if len(trails) == 0 {
			fmt.Fprintln(w, "no loops detected")
		}
		return nil
	}
	if n, err := strconv.Atoi(sel); err == nil {
		if n < 0 || n >= len(trails) {
			return fmt.Errorf("loop %d does not exist (%d loops detected)", n, len(trails))
		}
		flight.RenderTrail(w, trails[n].trail)
		return nil
	}
	for _, s := range trails {
		if s.trail.ID == sel {
			flight.RenderTrail(w, s.trail)
			return nil
		}
	}
	fmt.Fprintf(w, "detected loops:\n")
	for i, s := range trails {
		l := s.loop
		fmt.Fprintf(w, "  %3d  %s  %-18s  %v .. %v\n",
			i, s.trail.ID, l.Prefix,
			l.Start.Round(time.Millisecond), l.End.Round(time.Millisecond))
	}
	return fmt.Errorf("no loop with ID %q (IDs depend on the source name; see -explain-source)", sel)
}
