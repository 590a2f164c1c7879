package scenario

import (
	"fmt"
	"strings"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/netsim"
	"loopscope/internal/stats"
)

// CollateralReport quantifies the paper's §I claim that loops impact
// traffic that is *not* caught in them: replicas inflate link
// utilization, and on a busy link the extra queueing delays everyone.
// It compares the delay of never-looped deliveries during ground-truth
// loop windows (padded, since queues take a moment to drain) against
// deliveries in quiet periods.
type CollateralReport struct {
	// InLoop / Quiet are the delay distributions (milliseconds) of
	// never-looped deliveries inside and outside padded loop windows.
	InLoop, Quiet *stats.CDF
	// Windows is the number of loop windows used.
	Windows int
}

// inflation returns mean(InLoop) / mean(Quiet); 1 means loops had no
// collateral effect.
func (c *CollateralReport) inflation() float64 {
	if c.Quiet.N() == 0 || c.InLoop.N() == 0 || c.Quiet.Mean() == 0 {
		return 0
	}
	return c.InLoop.Mean() / c.Quiet.Mean()
}

// AnalyzeCollateral computes the comparison from per-packet fates
// (run the simulation with RecordAllFates) and the detected loops'
// windows, padded by pad on each side. Detector loops are the right
// windows: they are exactly the loops whose replicas amplified the
// monitored link (ground-truth loops elsewhere in the network do not
// load it).
func AnalyzeCollateral(n *netsim.Network, loops []*core.Loop, pad time.Duration) *CollateralReport {
	rep := &CollateralReport{InLoop: &stats.CDF{}, Quiet: &stats.CDF{}}
	rep.Windows = len(loops)
	inWindow := func(t time.Duration) bool {
		for _, w := range loops {
			if t >= w.Start-pad && t <= w.End+pad {
				return true
			}
		}
		return false
	}
	for _, f := range n.Fates {
		if !f.Delivered || f.LoopCount > 0 {
			continue
		}
		ms := float64(f.Delay) / float64(time.Millisecond)
		if inWindow(f.At) {
			rep.InLoop.Add(ms)
		} else {
			rep.Quiet.Add(ms)
		}
	}
	return rep
}

// RenderCollateral prints the comparison.
func RenderCollateral(link string, c *CollateralReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collateral delay (%s): %d loop windows\n", link, c.Windows)
	if c.InLoop.N() == 0 || c.Quiet.N() == 0 {
		b.WriteString("  not enough deliveries on one side to compare\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  never-looped traffic during loops: mean %.2fms  p50 %.2fms  p99 %.2fms  (%d pkts)\n",
		c.InLoop.Mean(), c.InLoop.Quantile(0.5), c.InLoop.Quantile(0.99), c.InLoop.N())
	fmt.Fprintf(&b, "  never-looped traffic in quiet air: mean %.2fms  p50 %.2fms  p99 %.2fms  (%d pkts)\n",
		c.Quiet.Mean(), c.Quiet.Quantile(0.5), c.Quiet.Quantile(0.99), c.Quiet.N())
	fmt.Fprintf(&b, "  inflation: x%.2f mean\n", c.inflation())
	return b.String()
}
