package main

import (
	"slices"
	"testing"
	"time"

	"loopscope/internal/analysis"
	"loopscope/internal/packet"
	"loopscope/internal/scenario"
)

// TestPaperShapes asserts the qualitative claims of every table and
// figure over the four-backbone session TestGoldenAll renders. It is the
// regression test for EXPERIMENTS.md; -short and the race detector skip
// it with the simulation.
func TestPaperShapes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("checks the full four-backbone simulation")
	}
	s := paperSession()
	reps := s.reps
	bb1, bb2, bb3, bb4 := reps[0], reps[1], reps[2], reps[3]

	// --- Table I ---------------------------------------------------
	// Backbone 2 carries several times backbone 1's load, so its
	// looped count is of similar magnitude absolutely but much
	// smaller relative to traffic.
	if bb2.AvgBandwidthMbps < 2.5*bb1.AvgBandwidthMbps {
		t.Errorf("Table I: bb2 bandwidth %.1f not >> bb1 %.1f",
			bb2.AvgBandwidthMbps, bb1.AvgBandwidthMbps)
	}
	rel1 := float64(bb1.LoopedPackets) / float64(bb1.TotalPackets)
	rel2 := float64(bb2.LoopedPackets) / float64(bb2.TotalPackets)
	if rel2 >= rel1 {
		t.Errorf("Table I: bb2 relative looped %.6f not below bb1 %.6f", rel2, rel1)
	}
	for _, r := range reps {
		if r.LoopedPackets == 0 {
			t.Fatalf("Table I: %s has no looped packets", r.Link)
		}
		if float64(r.LoopedPackets)/float64(r.TotalPackets) > 0.05 {
			t.Errorf("Table I: %s looped fraction implausibly high", r.Link)
		}
	}

	// --- Figure 2 --------------------------------------------------
	// Delta 2 is the mode everywhere; a tail over 3..8 exists;
	// backbone 4 splits roughly 55/35 between 2 and 3.
	for _, r := range reps {
		if r.TTLDelta.Mode() != 2 {
			t.Errorf("Fig 2: %s mode delta = %d, want 2", r.Link, r.TTLDelta.Mode())
		}
	}
	if f := bb4.TTLDelta.Fraction(2); f < 0.45 || f > 0.85 {
		t.Errorf("Fig 2: bb4 delta-2 fraction = %.2f, want ~0.55-0.7", f)
	}
	if f := bb4.TTLDelta.Fraction(3); f < 0.15 || f > 0.45 {
		t.Errorf("Fig 2: bb4 delta-3 fraction = %.2f, want ~0.35", f)
	}
	tail := 0.0
	for d := 3; d <= 8; d++ {
		tail += bb1.TTLDelta.Fraction(d)
	}
	if tail < 0.03 {
		t.Errorf("Fig 2: bb1 has no delta 3-8 tail (%.3f)", tail)
	}

	// --- Figure 3 --------------------------------------------------
	// Jumps near 31 and 63 replicas: significant mass lands between
	// 16..40 and 40..70.
	for _, r := range []*analysis.Report{bb1, bb2} {
		low := r.ReplicasPerStream.At(40) - r.ReplicasPerStream.At(16)
		high := r.ReplicasPerStream.At(70) - r.ReplicasPerStream.At(40)
		if low < 0.15 {
			t.Errorf("Fig 3: %s mass in 16..40 replicas = %.2f, want a TTL-64 step", r.Link, low)
		}
		if high < 0.15 {
			t.Errorf("Fig 3: %s mass in 40..70 replicas = %.2f, want a TTL-128 step", r.Link, high)
		}
	}

	// --- Figure 4 --------------------------------------------------
	// Backbones 1/2: ~90% under 8 ms. Backbones 3/4 slower; bb4 has
	// a visible tail beyond 10 ms but nearly everything under 22 ms.
	if f := bb1.SpacingMs.At(8); f < 0.85 {
		t.Errorf("Fig 4: bb1 spacing CDF at 8ms = %.2f, want >= 0.85", f)
	}
	if f := bb2.SpacingMs.At(8); f < 0.85 {
		t.Errorf("Fig 4: bb2 spacing CDF at 8ms = %.2f, want >= 0.85", f)
	}
	if f := bb4.SpacingMs.At(10); f < 0.3 || f > 0.95 {
		t.Errorf("Fig 4: bb4 spacing CDF at 10ms = %.2f, want a split around the paper's 55%%", f)
	}
	if f := bb4.SpacingMs.At(22); f < 0.9 {
		t.Errorf("Fig 4: bb4 spacing CDF at 22ms = %.2f, want >= 0.9", f)
	}

	// --- Figure 5 --------------------------------------------------
	syn := slices.Index(packet.ClassNames[:], "SYN")
	icmp := slices.Index(packet.ClassNames[:], "ICMP")
	tcp := slices.Index(packet.ClassNames[:], "TCP")
	udp := slices.Index(packet.ClassNames[:], "UDP")
	for _, r := range reps {
		if r.AllClassFrac[tcp] < 0.8 {
			t.Errorf("Fig 5: %s TCP fraction = %.2f, want > 0.8", r.Link, r.AllClassFrac[tcp])
		}
		if f := r.AllClassFrac[udp]; f < 0.05 || f > 0.15 {
			t.Errorf("Fig 5: %s UDP fraction = %.2f, want 0.05-0.15", r.Link, f)
		}
		if r.AllClassFrac[syn] > 0.08 {
			t.Errorf("Fig 5: %s SYN fraction = %.2f, want small", r.Link, r.AllClassFrac[syn])
		}
	}

	// --- Figure 6 --------------------------------------------------
	// SYNs and ICMP over-represented among looped packets.
	for _, r := range reps {
		if r.LoopedClassFrac[syn] < 2*r.AllClassFrac[syn] {
			t.Errorf("Fig 6: %s SYN not over-represented (%.3f vs %.3f)",
				r.Link, r.LoopedClassFrac[syn], r.AllClassFrac[syn])
		}
	}
	// ICMP elevation shows on the November pair (ping-on-abort +
	// anomalous host).
	if bb1.LoopedClassFrac[icmp] < 1.5*bb1.AllClassFrac[icmp] {
		t.Errorf("Fig 6: bb1 ICMP not over-represented (%.3f vs %.3f)",
			bb1.LoopedClassFrac[icmp], bb1.AllClassFrac[icmp])
	}
	// The reserved-type-ICMP host exists on the November pair only
	// (§V-B).
	if bb1.ReservedICMPFraction() == 0 || bb2.ReservedICMPFraction() == 0 {
		t.Error("Fig 6: anomalous reserved-type ICMP host missing on bb1/bb2")
	}
	if bb3.ReservedICMPFraction() != 0 || bb4.ReservedICMPFraction() != 0 {
		t.Error("Fig 6: reserved-type ICMP appeared on the February pair")
	}

	// --- Figure 7 --------------------------------------------------
	// Streams concentrate in the historical class-C space.
	for _, r := range reps {
		if f := r.ClassCFraction(); f < 0.5 {
			t.Errorf("Fig 7: %s class-C fraction = %.2f, want > 0.5", r.Link, f)
		}
		if len(r.DestSeries) != r.ReplicaStreams {
			t.Errorf("Fig 7: %s series size mismatch", r.Link)
		}
	}

	// --- Figure 8 --------------------------------------------------
	// Streams are short: the overwhelming majority under 1 s, most
	// under 500 ms on backbones 1-3.
	for _, r := range []*analysis.Report{bb1, bb2, bb3} {
		if f := r.StreamDurationMs.At(500); f < 0.8 {
			t.Errorf("Fig 8: %s stream durations at 500ms = %.2f, want >= 0.8", r.Link, f)
		}
	}
	// bb4's three initial TTLs stretch its curve: visible mass beyond
	// 300 ms.
	if f := bb4.StreamDurationMs.At(300); f > 0.95 {
		t.Errorf("Fig 8: bb4 has no long-duration structure (%.2f at 300ms)", f)
	}

	// --- Table II --------------------------------------------------
	for i, r := range reps {
		if r.RoutingLoops == 0 || r.ReplicaStreams == 0 {
			t.Fatalf("Table II: %s empty", r.Link)
		}
		if r.RoutingLoops > r.ReplicaStreams {
			t.Errorf("Table II: %s loops %d > streams %d", r.Link, r.RoutingLoops, r.ReplicaStreams)
		}
		if s.runs[i].res.PairsDiscarded < 0 {
			t.Errorf("Table II: negative pair count")
		}
	}
	merged := 0
	for _, r := range reps {
		if r.RoutingLoops < r.ReplicaStreams {
			merged++
		}
	}
	if merged < 3 {
		t.Errorf("Table II: merging had no effect on %d traces", 4-merged)
	}

	// --- Figure 9 --------------------------------------------------
	// Backbone 3: ~90% of loops under 10 s. The November pair has a
	// longer tail: some loops beyond 10 s.
	if f := bb3.LoopDurationSec.At(10); f < 0.85 {
		t.Errorf("Fig 9: bb3 loops at 10s = %.2f, want >= 0.85", f)
	}
	if f := bb2.LoopDurationSec.At(10); f > 0.92 {
		t.Errorf("Fig 9: bb2 has no >10s tail (%.2f)", f)
	}

	// --- §VI loss and delay -----------------------------------------
	for i, r := range s.runs {
		lr := scenario.AnalyzeLoss(r.bb.Net)
		if lr.OverallLoopLossRate <= 0 {
			t.Errorf("loss: %s no loop loss", reps[i].Link)
		}
		if lr.OverallLoopLossRate > 0.01 {
			t.Errorf("loss: %s loop loss rate %.4f implausibly high", reps[i].Link, lr.OverallLoopLossRate)
		}
		if lr.MaxLoopShare <= lr.OverallLoopLossRate {
			t.Errorf("loss: %s no per-minute spike", reps[i].Link)
		}
		dr := scenario.AnalyzeDelay(r.bb.Net)
		if dr.EscapedCount > 0 {
			// The paper reports 1-10%. At reduced scale the TTL-32
			// population on backbone4 lives only ~100 ms in a loop,
			// so the escape share runs above the paper's band; the
			// bound here only guards against "everything escapes".
			if dr.EscapeFraction > 0.40 {
				t.Errorf("delay: %s escape fraction %.2f implausibly high", reps[i].Link, dr.EscapeFraction)
			}
			if p50 := dr.ExtraDelayMs.Quantile(0.5); p50 < 5 || p50 > 600 {
				t.Errorf("delay: %s p50 extra delay %.0fms outside a plausible 25-300ms-ish band", reps[i].Link, p50)
			}
		}
	}

	// Detector-vs-ground-truth sanity across all four.
	for i, r := range s.runs {
		gt := r.bb.Net.GroundTruthWindows(time.Minute)
		if len(gt) == 0 {
			t.Fatalf("%s: no ground truth", reps[i].Link)
		}
		if len(r.res.Loops) == 0 {
			t.Fatalf("%s: no detected loops", reps[i].Link)
		}
	}
}
