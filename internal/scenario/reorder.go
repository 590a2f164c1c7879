package scenario

import (
	"sort"
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/stats"
)

// ReorderReport quantifies the paper's closing §VI remark: "those
// packets that escape a loop can be delivered out-of-order". A
// delivered packet is reordered when some packet from the same
// (source, destination) pair that was sent later arrived earlier.
type ReorderReport struct {
	// Delivered is the number of delivered packets inspected.
	Delivered int
	// Reordered counts delivered packets that arrived after a
	// later-sent packet of their pair.
	Reordered int
	// ReorderedByLoop counts reordered packets that had looped — the
	// out-of-order deliveries the paper attributes to loop escape.
	ReorderedByLoop int
	// Displacement is the CDF of how late a reordered packet arrived,
	// in packets (how many later-sent pair packets overtook it).
	Displacement *stats.CDF
	// MaxLatenessMs is the CDF of time between a reordered packet's
	// delivery and the delivery of the first packet that overtook it.
	MaxLatenessMs *stats.CDF
}

// AnalyzeReordering computes reordering over the network's retained
// fates. It needs every delivered fate, so run the simulation with a
// FateFilter that keeps everything (Spec.RecordAllFates).
func AnalyzeReordering(n *netsim.Network) *ReorderReport {
	rep := &ReorderReport{
		Displacement:  &stats.CDF{},
		MaxLatenessMs: &stats.CDF{},
	}
	type pair struct{ src, dst packet.Addr }
	byPair := make(map[pair][]netsim.Fate)
	for _, f := range n.Fates {
		if !f.Delivered {
			continue
		}
		rep.Delivered++
		byPair[pair{f.Src, f.Dst}] = append(byPair[pair{f.Src, f.Dst}], f)
	}
	for _, fates := range byPair {
		if len(fates) < 2 {
			continue
		}
		// Delivery order.
		sort.Slice(fates, func(i, j int) bool {
			if fates[i].At != fates[j].At {
				return fates[i].At < fates[j].At
			}
			return fates[i].UID < fates[j].UID
		})
		// A packet is reordered iff a packet with a larger UID (sent
		// later; UIDs are injection-ordered) was delivered earlier.
		// Scan delivery order tracking the max UID seen so far.
		var maxUID uint64
		for _, f := range fates {
			if f.UID < maxUID {
				rep.Reordered++
				if f.LoopCount > 0 {
					rep.ReorderedByLoop++
				}
				// Displacement: count of earlier-delivered,
				// later-sent packets.
				overtakers := 0
				var firstOvertakeAt time.Duration = -1
				for _, g := range fates {
					if g.At >= f.At {
						break
					}
					if g.UID > f.UID {
						overtakers++
						if firstOvertakeAt < 0 {
							firstOvertakeAt = g.At
						}
					}
				}
				rep.Displacement.Add(float64(overtakers))
				if firstOvertakeAt >= 0 {
					rep.MaxLatenessMs.Add(float64(f.At-firstOvertakeAt) / float64(time.Millisecond))
				}
			} else {
				maxUID = f.UID
			}
		}
	}
	return rep
}

// ReorderFraction returns reordered / delivered.
func (r *ReorderReport) ReorderFraction() float64 {
	if r.Delivered == 0 {
		return 0
	}
	return float64(r.Reordered) / float64(r.Delivered)
}

// LoopShareOfReordering returns the share of reordered deliveries that
// had looped.
func (r *ReorderReport) LoopShareOfReordering() float64 {
	if r.Reordered == 0 {
		return 0
	}
	return float64(r.ReorderedByLoop) / float64(r.Reordered)
}
