package indicator_test

import (
	"testing"
	"time"

	"loopscope/cmd/paperrepro/internal/indicator"
	"loopscope/internal/core"
	"loopscope/internal/events"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/scenario"
	"loopscope/internal/trace"
)

// icmpRec builds a single ICMP echo record.
func icmpRec(t *testing.T, at time.Duration, dst string, id uint16) trace.Record {
	t.Helper()
	p := packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: 60, Protocol: packet.ProtoICMP,
			Src: packet.MustParseAddr("192.0.2.9"),
			Dst: packet.MustParseAddr(dst), ID: id,
		},
		Kind:         packet.KindICMP,
		ICMP:         packet.ICMPHeader{Type: packet.ICMPEchoRequest, Rest: uint32(id)},
		HasTransport: true,
		PayloadLen:   56, PayloadSeed: uint64(id),
	}
	buf := make([]byte, 40)
	n, err := p.Serialize(buf, 40)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Record{Time: at, WireLen: p.WireLen(), Data: buf[:n]}
}

// alarmsOf runs the indicator over recs with the default configuration.
func alarmsOf(recs []trace.Record) []indicator.Alarm {
	d := indicator.New(indicator.DefaultConfig())
	for _, r := range recs {
		d.Observe(r)
	}
	return d.Finish()
}

func TestSurgeRaisesAlarm(t *testing.T) {
	var recs []trace.Record
	// Baseline: one ping per 10 s for 2 minutes.
	for i := 0; i < 12; i++ {
		recs = append(recs, icmpRec(t, time.Duration(i)*10*time.Second, "203.0.113.7", uint16(i+1)))
	}
	// Surge: 30 pings in 3 s.
	for i := 0; i < 30; i++ {
		recs = append(recs, icmpRec(t, 2*time.Minute+time.Duration(i)*100*time.Millisecond,
			"203.0.113.7", uint16(100+i)))
	}
	// Quiet tail so the alarm closes.
	for i := 0; i < 10; i++ {
		recs = append(recs, icmpRec(t, 3*time.Minute+time.Duration(i)*10*time.Second,
			"198.51.100.1", uint16(500+i)))
	}

	alarms := alarmsOf(recs)
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d, want 1 (%+v)", len(alarms), alarms)
	}
	a := alarms[0]
	if a.Prefix != routing.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("alarm prefix %v", a.Prefix)
	}
	if a.Start < 119*time.Second || a.Start > 122*time.Second {
		t.Errorf("alarm start %v, want at the surge onset", a.Start)
	}
	if a.Peak < 8 {
		t.Errorf("alarm peak %d", a.Peak)
	}
}

func TestBaselineTrafficDoesNotAlarm(t *testing.T) {
	var recs []trace.Record
	// Steady 1 ping/second to one prefix: high absolute count but no
	// surge over baseline.
	for i := 0; i < 300; i++ {
		recs = append(recs, icmpRec(t, time.Duration(i)*time.Second, "203.0.113.7", uint16(i+1)))
	}
	alarms := alarmsOf(recs)
	if len(alarms) != 0 {
		t.Fatalf("steady traffic raised %d alarms: %+v", len(alarms), alarms)
	}
}

func TestColdStartNeedsAbsoluteFloor(t *testing.T) {
	// A handful of pings to a fresh prefix must not alarm (below
	// MinCount) even though the baseline is empty.
	var recs []trace.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, icmpRec(t, time.Duration(i)*200*time.Millisecond, "203.0.113.7", uint16(i+1)))
	}
	alarms := alarmsOf(recs)
	if len(alarms) != 0 {
		t.Fatalf("cold start alarmed: %+v", alarms)
	}
}

// TestIndicatorAgainstDetector runs the indicator on a simulated
// backbone and scores it against the exact detector — the quantified
// version of the paper's "strong indication" remark.
func TestIndicatorAgainstDetector(t *testing.T) {
	bb := scenario.Build(indicator.Scenario())
	bb.Run()
	recs := bb.Records()

	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Fatal("no loops to evaluate against")
	}
	ind := indicator.New(indicator.DefaultConfig())
	for _, r := range recs {
		ind.Observe(r)
	}
	alarms := ind.Finish()
	// The slack must cover client behaviour: a flow only aborts (and
	// its user only starts pinging) after the full TCP retry ladder,
	// 15-25 s after the loop swallowed its packets.
	// Match at /16: an outage takes out the whole pocket block while
	// the ping surge lands on its most popular /24.
	ev := indicator.Evaluate(alarms, res.Loops, 30*time.Second, 16)

	// Users also ping during the blackhole that follows a loop (the
	// primary stays down until the repair), so judge precision
	// against "trouble windows": detected loops plus link outages
	// from the journal.
	type window struct{ lo, hi time.Duration }
	var trouble []window
	for _, l := range res.Loops {
		trouble = append(trouble, window{l.Start - 15*time.Second, l.End + 30*time.Second})
	}
	var openFail time.Duration = -1
	for _, e := range bb.Net.Journal.Filter(events.LinkFailed, events.LinkRepaired) {
		switch e.Kind {
		case events.LinkFailed:
			openFail = e.At
		case events.LinkRepaired:
			if openFail >= 0 {
				trouble = append(trouble, window{openFail, e.At + 30*time.Second})
				openFail = -1
			}
		}
	}
	troubleTP := 0
	for _, a := range alarms {
		hit := false
		for _, w := range trouble {
			if a.Start <= w.hi && w.lo <= a.End {
				troubleTP++
				hit = true
				break
			}
		}
		if !hit {
			t.Logf("false alarm: %v %v..%v peak %d", a.Prefix, a.Start, a.End, a.Peak)
		}
	}
	troublePrecision := float64(troubleTP) / float64(max(len(alarms), 1))
	t.Logf("loops=%d alarms=%d recall=%.2f loop-precision=%.2f trouble-precision=%.2f icmpSeen=%d lead=%.0fms",
		ev.Loops, ev.Alarms, ev.Recall(), ev.Precision(), troublePrecision, ind.ICMPSeen, ev.MedianLeadMs)

	if ev.Alarms == 0 {
		t.Fatal("indicator raised no alarms despite loops with heavy ping retries")
	}
	if troublePrecision < 0.5 {
		t.Errorf("trouble precision %.2f below 0.5 — alarms outside any outage", troublePrecision)
	}
	if ev.Recall() < 0.5 {
		t.Errorf("recall %.2f below 0.5 — the signal the paper describes is missing", ev.Recall())
	}
	// The indicator must inspect only the ICMP sliver of the link.
	if ind.ICMPSeen*10 > len(recs) {
		t.Errorf("indicator inspected %d of %d records; should be a small fraction",
			ind.ICMPSeen, len(recs))
	}
}
