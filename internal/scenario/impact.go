package scenario

import (
	"fmt"
	"strings"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/stats"
)

// LossReport summarises the §VI loss analysis from simulator
// accounting.
type LossReport struct {
	// PerMinuteLoopShare is, for each trace minute, the share of that
	// minute's drops attributable to loops (TTL expiry of looped
	// packets).
	PerMinuteLoopShare []float64
	// MaxLoopShare is the worst minute's share — the paper reports up
	// to 0.09 (9%) depending on the trace.
	MaxLoopShare float64
	// OverallLossRate is total drops / total injected.
	OverallLossRate float64
	// OverallLoopLossRate is loop-attributable drops / total injected.
	OverallLoopLossRate float64
}

// AnalyzeLoss extracts a LossReport from a simulated network.
func AnalyzeLoss(n *netsim.Network) *LossReport {
	lr := &LossReport{}
	var drops, loopDrops uint64
	for _, m := range n.Minutes {
		d := m.TotalDrops()
		drops += d
		loopDrops += m.LoopDrops
		share := 0.0
		if d > 0 {
			share = float64(m.LoopDrops) / float64(d)
		}
		lr.PerMinuteLoopShare = append(lr.PerMinuteLoopShare, share)
		if share > lr.MaxLoopShare {
			lr.MaxLoopShare = share
		}
	}
	if n.Injected > 0 {
		lr.OverallLossRate = float64(drops) / float64(n.Injected)
		lr.OverallLoopLossRate = float64(loopDrops) / float64(n.Injected)
	}
	return lr
}

// DelayReport summarises the §VI extra-delay analysis from simulator
// ground truth: packets that escaped a loop versus packets that never
// looped.
type DelayReport struct {
	// EscapedCount is the number of delivered packets that had
	// looped.
	EscapedCount int
	// EscapeFraction is escaped / all looped packets.
	EscapeFraction float64
	// CleanMeanDelay is the mean delay of never-looped deliveries.
	CleanMeanDelay time.Duration
	// ExtraDelayMs is the CDF of (escaped delay - clean mean) in
	// milliseconds.
	ExtraDelayMs *stats.CDF
}

// AnalyzeDelay extracts a DelayReport from a simulated network. The
// network must retain looped fates (the default FateFilter does).
func AnalyzeDelay(n *netsim.Network) *DelayReport {
	dr := &DelayReport{
		CleanMeanDelay: n.CleanMeanDelay(),
		ExtraDelayMs:   &stats.CDF{},
	}
	looped := 0
	for _, f := range n.Fates {
		if f.LoopCount == 0 {
			continue
		}
		looped++
		if f.Delivered {
			dr.EscapedCount++
			extra := f.Delay - dr.CleanMeanDelay
			if extra < 0 {
				extra = 0
			}
			dr.ExtraDelayMs.Add(float64(extra) / float64(time.Millisecond))
		}
	}
	if looped > 0 {
		dr.EscapeFraction = float64(dr.EscapedCount) / float64(looped)
	}
	return dr
}

// RenderLoss prints the §VI loss-impact summary.
func RenderLoss(link string, lr *LossReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Loss impact (%s): overall loss %.4f%%, loop-attributable %.4f%%, worst minute loop share %.1f%%\n",
		link, lr.OverallLossRate*100, lr.OverallLoopLossRate*100, lr.MaxLoopShare*100)
	for i, s := range lr.PerMinuteLoopShare {
		bar := strings.Repeat("#", int(s*40+0.5))
		fmt.Fprintf(&b, "  minute %3d: %5.1f%% %s\n", i, s*100, bar)
	}
	return b.String()
}

// RenderDelay prints the §VI delay-impact summary.
func RenderDelay(link string, dr *DelayReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Delay impact (%s): escaped %d looped packets (%.1f%%), clean mean delay %s\n",
		link, dr.EscapedCount, dr.EscapeFraction*100, dr.CleanMeanDelay.Round(time.Microsecond))
	if dr.ExtraDelayMs.N() > 0 {
		fmt.Fprintf(&b, "  extra delay of escapees: p10=%.1fms p50=%.1fms p90=%.1fms max=%.1fms\n",
			dr.ExtraDelayMs.Quantile(0.10), dr.ExtraDelayMs.Quantile(0.50),
			dr.ExtraDelayMs.Quantile(0.90), dr.ExtraDelayMs.Max())
	}
	return b.String()
}
