package analysis

import (
	"fmt"
	"strings"
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
