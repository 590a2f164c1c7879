// Backbone runs one full simulated backbone trace (the backbone1
// stand-in from the paper's Table I, scaled down for an example) and
// prints the per-trace analysis: the Table I row, the TTL-delta
// distribution, the traffic mixes of all versus looped traffic, and
// the merged loops.
//
//	go run ./examples/backbone
package main

import (
	"fmt"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/core"
	"loopscope/internal/scenario"
)

func main() {
	spec := scenario.PaperBackbones()[0] // backbone1
	spec.Duration = 3 * time.Minute      // example-sized
	spec.PacketsPerSecond = 900

	fmt.Printf("simulating %s (%v at %.0f pps)...\n",
		spec.Name, spec.Duration, spec.PacketsPerSecond)
	bb := scenario.Build(spec)
	bb.Run()
	recs := bb.Records()

	res := core.DetectRecords(recs, core.DefaultConfig())
	rep := analysis.Analyze(bb.Meta(), recs, res)
	reps := []*analysis.Report{rep}

	for _, f := range analysis.Figures {
		switch f.Name {
		case "table1", "table2", "fig2", "fig5", "fig6":
			fmt.Println()
			fmt.Print(f.Text(reps, 0))
		}
	}
	fmt.Println()

	fmt.Println("merged routing loops:")
	for i, l := range res.Loops {
		fmt.Printf("  %2d  %-18s %9v  %2d streams  %4d replicas\n",
			i, l.Prefix, l.Duration().Round(time.Millisecond), len(l.Streams), l.Replicas())
	}

	lr := analysis.AnalyzeLoss(bb.Net)
	fmt.Println()
	fmt.Printf("loss: overall %.4f%%, loop-attributable %.4f%%, worst minute loop share %.1f%%\n",
		lr.OverallLossRate*100, lr.OverallLoopLossRate*100, lr.MaxLoopShare*100)
}
