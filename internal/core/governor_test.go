package core

import (
	"fmt"
	"testing"
	"time"

	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// stormTrace builds an IPID-collision storm: ground-truth loops on
// nLoops prefixes buried in a flood of distinct one-off packets, each
// of which starts (and never extends) its own stream builder. The
// returned ground truth maps loop prefixes to their time windows.
func stormTrace(t *testing.T, nLoops, nStorm int) ([]trace.Record, map[routing.Prefix][2]time.Duration) {
	t.Helper()
	var recs []trace.Record
	truth := make(map[routing.Prefix][2]time.Duration)
	for i := 0; i < nLoops; i++ {
		pkt := mkPkt("192.0.2.9", fmt.Sprintf("198.18.%d.5", i), uint16(1000+i), 60, uint64(i+1))
		start := 500*time.Millisecond + time.Duration(i)*10*time.Millisecond
		run := replicaRun(t, start, 20*time.Millisecond, pkt, 10, 2)
		recs = append(recs, run...)
		pfx := routing.PrefixOf(pkt.IP.Dst, 24)
		truth[pfx] = [2]time.Duration{run[0].Time, run[len(run)-1].Time}
	}
	for i := 0; i < nStorm; i++ {
		// Distinct dst, src and IPID per packet: every one is a new
		// stream that will never see a second replica.
		dst := fmt.Sprintf("10.%d.%d.1", (i/250)%250, i%250)
		src := fmt.Sprintf("172.16.%d.%d", (i/200)%200, i%200)
		pkt := mkPkt(src, dst, uint16(i), 64, uint64(i))
		at := 100*time.Millisecond + time.Duration(i)*200*time.Microsecond
		recs = append(recs, rec(t, at, pkt))
	}
	sortRecords(recs)
	return recs, truth
}

// runStorm feeds recs through an emitting Detector, tracking the peak live
// builder count after every record.
func runStorm(cfg Config, recs []trace.Record) (loops []*Loop, peak int, stats StreamStats) {
	sd := NewStreamDetector(cfg, func(l *Loop) { loops = append(loops, l) })
	for _, r := range recs {
		sd.Observe(r)
		if n := sd.LiveBuilders(); n > peak {
			peak = n
		}
	}
	stats = sd.FinishStats()
	return loops, peak, stats
}

func TestGovernorEnforcesCapUnderStorm(t *testing.T) {
	const cap = 512
	recs, truth := stormTrace(t, 20, 8000)

	base := DefaultConfig()
	baseLoops, basePeak, baseStats := runStorm(base, recs)
	if basePeak <= cap {
		t.Fatalf("storm too weak: uncapped peak %d builders, need > %d for the test to mean anything", basePeak, cap)
	}
	if baseStats.ShedStreams != 0 || baseStats.ShedPackets != 0 {
		t.Fatalf("uncapped run shed state: %+v", baseStats)
	}
	if len(baseLoops) < 20 {
		t.Fatalf("uncapped run found %d loops, want >= 20", len(baseLoops))
	}

	capped := base
	capped.MaxActiveStreams = cap
	capLoops, capPeak, capStats := runStorm(capped, recs)
	if capPeak > cap {
		t.Fatalf("governor let live builders reach %d, cap is %d", capPeak, cap)
	}
	if capStats.ShedStreams == 0 {
		t.Fatal("governor shed no streams under a storm that exceeds the cap")
	}
	// The acceptance bar: >= 90% of ground-truth loops still recalled.
	recalled := 0
	for pfx, win := range truth {
		for _, l := range capLoops {
			if l.Prefix == pfx && l.Start <= win[1] && l.End >= win[0] {
				recalled++
				break
			}
		}
	}
	if min := (len(truth)*9 + 9) / 10; recalled < min {
		t.Fatalf("governed detector recalled %d/%d ground-truth loops, want >= %d", recalled, len(truth), min)
	}
	t.Logf("uncapped peak %d, capped peak %d, shed streams %d packets %d, recall %d/%d",
		basePeak, capPeak, capStats.ShedStreams, capStats.ShedPackets, recalled, len(truth))
}

func TestGovernorDeterministic(t *testing.T) {
	recs, _ := stormTrace(t, 8, 3000)
	cfg := DefaultConfig()
	cfg.MaxActiveStreams = 128

	key := func(ls []*Loop) []string {
		var out []string
		for _, l := range ls {
			out = append(out, fmt.Sprintf("%v|%v|%v|%d", l.Prefix, l.Start, l.End, l.Replicas()))
		}
		return out
	}
	a, _, sa := runStorm(cfg, recs)
	b, _, sb := runStorm(cfg, recs)
	ka, kb := key(a), key(b)
	if len(ka) != len(kb) {
		t.Fatalf("same input, different loop counts: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("loop %d differs across identical runs:\n%s\n%s", i, ka[i], kb[i])
		}
	}
	if sa.ShedStreams != sb.ShedStreams || sa.ShedPackets != sb.ShedPackets {
		t.Fatalf("shed counters differ across identical runs: %+v vs %+v", sa, sb)
	}
}

func TestGovernorHighCapMatchesUncapped(t *testing.T) {
	recs, _ := stormTrace(t, 8, 1000)
	base := DefaultConfig()
	uncapped, _, _ := runStorm(base, recs)

	roomy := base
	roomy.MaxActiveStreams = 100000
	capped, _, stats := runStorm(roomy, recs)
	if stats.ShedStreams != 0 || stats.ShedPackets != 0 {
		t.Fatalf("roomy cap shed state: %+v", stats)
	}
	if len(capped) != len(uncapped) {
		t.Fatalf("roomy cap changed loop count: %d vs %d", len(capped), len(uncapped))
	}
	for i := range capped {
		if capped[i].Prefix != uncapped[i].Prefix || capped[i].Start != uncapped[i].Start ||
			capped[i].End != uncapped[i].End || capped[i].Replicas() != uncapped[i].Replicas() {
			t.Fatalf("loop %d differs under a cap that was never hit", i)
		}
	}
}

func TestGovernorSessionShed(t *testing.T) {
	recs, _ := stormTrace(t, 4, 3000)
	cfg := DefaultConfig()
	cfg.MaxActiveStreams = 64
	s, err := NewSession(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		s.Observe(r)
	}
	shed := s.Shed()
	if shed.Streams == 0 {
		t.Fatal("Session.Shed() reports no shed streams under a storm")
	}
	stats := s.Drain()
	if stats.ShedStreams != shed.Streams || stats.ShedPackets < shed.Packets {
		t.Fatalf("drain stats %+v inconsistent with live shed %+v", stats, shed)
	}
}

func TestConfigRejectsNegativeMaxActiveStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxActiveStreams = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted negative MaxActiveStreams")
	}
}

// TestGovernorShedCountsMatchParent pins what the governor gives up on
// the governed traces of this file and of TestDetectorDeterminism, as
// counted when every first observation was a builder. The cap counts
// unpromoted first observations and builders alike and sheds the
// coldest of either kind first, so those counts carry over exactly.
func TestGovernorShedCountsMatchParent(t *testing.T) {
	storm := func(nLoops, nStorm int) func() []trace.Record {
		return func() []trace.Record { recs, _ := stormTrace(t, nLoops, nStorm); return recs }
	}
	for _, c := range []struct {
		name          string
		recs          func() []trace.Record
		cap, peak     int
		streams, pkts int64
	}{
		{"storm 20x8000 cap 512", storm(20, 8000), 512, 512, 7313, 195},
		{"storm 8x3000 cap 128", storm(8, 3000), 128, 128, 2880, 0},
		{"storm 8x1000 cap 100000", storm(8, 1000), 100000, 1008, 0, 0},
		{"storm 4x3000 cap 64", storm(4, 3000), 64, 64, 2975, 0},
		{"random 1234 cap 64", func() []trace.Record { return randomTrace(1234, 15*time.Second, 1000, 5) }, 64, 64, 9701, 10605},
	} {
		cfg := DefaultConfig()
		cfg.MaxActiveStreams = c.cap
		_, peak, st := runStorm(cfg, c.recs())
		t.Logf("%s: {%d, %d, %d}", c.name, peak, st.ShedStreams, st.ShedPackets)
		if peak != c.peak || st.ShedStreams != c.streams || st.ShedPackets != c.pkts {
			t.Errorf("%s: peak of %d live, shed %d streams and %d packets; want %d, %d and %d",
				c.name, peak, st.ShedStreams, st.ShedPackets, c.peak, c.streams, c.pkts)
		}
	}
}
