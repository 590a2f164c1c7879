package analysis

import (
	"fmt"
	"strings"
	"time"
)

// RenderTTLDelta prints the fraction of r's replica streams at each TTL
// delta it saw, with a bar per delta: the short form of Figure 2 that
// loopdetect prints for one trace.
func RenderTTLDelta(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s  %8s  %s\n", "ttl delta", "fraction", "")
	for _, bk := range r.TTLDelta.Buckets() {
		f := r.TTLDelta.Fraction(int(bk.Lo))
		fmt.Fprintf(&b, "%-10d  %8.4f  %s\n", bk.Lo, f, strings.Repeat("#", int(f*40+0.5)))
	}
	return b.String()
}

// ClassCFraction returns the fraction of a report's replica streams
// whose destination lies in the historical class-C space
// (192.0.0.0/3), the concentration the paper points out in Figure 7.
func (r *Report) ClassCFraction() float64 {
	if len(r.DestSeries) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.DestSeries {
		if classC(p.Dst) {
			n++
		}
	}
	return float64(n) / float64(len(r.DestSeries))
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
