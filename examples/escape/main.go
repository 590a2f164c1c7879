// Escape studies the paper's §VI performance-impact findings: how many
// looping packets escape their loop alive, how much extra delay they
// accumulate, and how much of the per-minute packet loss the loops
// account for — from both the simulator's omniscient ground truth and
// the detector's single-link estimate.
//
//	go run ./examples/escape
package main

import (
	"fmt"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/core"
	"loopscope/internal/scenario"
)

func main() {
	spec := scenario.PaperBackbones()[1] // backbone2: busiest, BGP tail
	spec.Duration = 3 * time.Minute
	spec.PacketsPerSecond = 2500

	fmt.Printf("simulating %s (%v at %.0f pps)...\n\n",
		spec.Name, spec.Duration, spec.PacketsPerSecond)
	bb := scenario.Build(spec)
	bb.Run()
	recs := bb.Records()
	res := core.DetectRecords(recs, core.DefaultConfig())
	rep := analysis.Analyze(bb.Meta(), recs, res)

	// Ground truth: the simulator knows every packet's fate.
	dr := scenario.AnalyzeDelay(bb.Net)
	fmt.Println("ground truth (simulator):")
	fmt.Printf("  looped packets delivered anyway (escaped): %d (%.1f%% of looped)\n",
		dr.EscapedCount, dr.EscapeFraction*100)
	fmt.Printf("  mean delay of never-looped deliveries:     %v\n",
		dr.CleanMeanDelay.Round(time.Microsecond))
	if dr.ExtraDelayMs.N() > 0 {
		fmt.Printf("  extra delay of escapees: p10=%.0fms  p50=%.0fms  p90=%.0fms  max=%.0fms\n",
			dr.ExtraDelayMs.Quantile(0.10), dr.ExtraDelayMs.Quantile(0.50),
			dr.ExtraDelayMs.Quantile(0.90), dr.ExtraDelayMs.Max())
		fmt.Println("  (the paper reports 25-300 ms of extra delay for escapees)")
	}

	// Detector estimate: only what one link's trace can tell.
	fmt.Println()
	fmt.Println("detector estimate (single-link trace):")
	fmt.Printf("  replica streams: %d, classified escaped: %d (%.1f%%)\n",
		rep.ReplicaStreams, rep.EscapedStreams, rep.EscapeFraction()*100)
	if rep.EscapeDelayMs.N() > 0 {
		fmt.Printf("  observable loop delay of escapees: p50=%.0fms  p90=%.0fms\n",
			rep.EscapeDelayMs.Quantile(0.5), rep.EscapeDelayMs.Quantile(0.9))
	}

	// Loss accounting.
	lr := scenario.AnalyzeLoss(bb.Net)
	fmt.Println()
	fmt.Println("loss accounting per minute (loop share of that minute's drops):")
	fmt.Print(scenario.RenderLoss(spec.Name, lr))

	// Reordering: an escaped packet is delivered after packets its
	// sender emitted later — the out-of-order delivery the paper
	// notes.
	fmt.Println()
	fmt.Printf("escaped packets (each delivered out of order w.r.t. its flow): %d\n", dr.EscapedCount)
}
