package fibscan

import (
	"reflect"
	"testing"
	"time"

	"loopscope/internal/routing"
)

// reportAt builds a one-cycle report for Collate tests.
func reportAt(at time.Duration, routers []string, prefix string) *Report {
	p := routing.MustParsePrefix(prefix)
	lo, hi := p.Range()
	return &Report{
		TakenNs: int64(at),
		Cycles: []Cycle{{
			Routers:  routers,
			Ranges:   []AddrRange{{lo: lo, hi: hi}},
			Prefixes: []routing.Prefix{p},
		}},
	}
}

func TestCollateMergesContiguousSightings(t *testing.T) {
	reports := []*Report{
		reportAt(0, []string{"a", "b"}, "10.0.0.0/8"),
		reportAt(10*time.Millisecond, []string{"a", "b"}, "10.0.0.0/8"),
		reportAt(20*time.Millisecond, []string{"a", "b"}, "10.0.0.0/8"),
	}
	loops := Collate(reports, 50*time.Millisecond)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1: %+v", len(loops), loops)
	}
	l := loops[0]
	if l.FirstSeen != 0 || l.LastSeen != 20*time.Millisecond || l.Snapshots != 3 {
		t.Errorf("window = [%v, %v] over %d snapshots", l.FirstSeen, l.LastSeen, l.Snapshots)
	}
}

func TestCollateSplitsFlaps(t *testing.T) {
	reports := []*Report{
		reportAt(0, []string{"a", "b"}, "10.0.0.0/8"),
		{TakenNs: int64(10 * time.Millisecond)}, // healed
		{TakenNs: int64(20 * time.Millisecond)},
		reportAt(200*time.Millisecond, []string{"a", "b"}, "10.0.0.0/8"),
	}
	loops := Collate(reports, 50*time.Millisecond)
	if len(loops) != 2 {
		t.Fatalf("flap collapsed into %d loop(s): %+v", len(loops), loops)
	}
	if loops[0].FirstSeen != 0 || loops[1].FirstSeen != 200*time.Millisecond {
		t.Errorf("occurrence starts: %v, %v", loops[0].FirstSeen, loops[1].FirstSeen)
	}
}

func TestCollateDistinctMemberships(t *testing.T) {
	reports := []*Report{
		reportAt(0, []string{"a", "b"}, "10.0.0.0/8"),
		reportAt(10*time.Millisecond, []string{"b", "c"}, "10.0.0.0/8"),
	}
	loops := Collate(reports, time.Second)
	if len(loops) != 2 {
		t.Fatalf("distinct memberships merged: %+v", loops)
	}
}

func TestCollateUnionsFootprint(t *testing.T) {
	reports := []*Report{
		reportAt(0, []string{"a", "b"}, "10.0.0.0/16"),
		reportAt(10*time.Millisecond, []string{"a", "b"}, "10.1.0.0/16"),
	}
	loops := Collate(reports, time.Second)
	if len(loops) != 1 {
		t.Fatalf("loops = %+v", loops)
	}
	l := loops[0]
	// Adjacent /16s coalesce into one range; both prefixes retained.
	if len(l.Ranges) != 1 {
		t.Errorf("ranges not coalesced: %v", l.Ranges)
	}
	want := []routing.Prefix{
		routing.MustParsePrefix("10.0.0.0/16"),
		routing.MustParsePrefix("10.1.0.0/16"),
	}
	if !reflect.DeepEqual(l.Prefixes, want) {
		t.Errorf("prefixes = %v, want %v", l.Prefixes, want)
	}
	if !l.coversPrefix(routing.MustParsePrefix("10.0.128.0/17")) {
		t.Errorf("union lost coverage")
	}
}

func tableLoop(prefix string, first, last time.Duration, routers ...string) TableLoop {
	p := routing.MustParsePrefix(prefix)
	lo, hi := p.Range()
	return TableLoop{
		Routers:   routers,
		Ranges:    []AddrRange{{lo: lo, hi: hi}},
		Prefixes:  []routing.Prefix{p},
		FirstSeen: first,
		LastSeen:  last,
		Snapshots: 1,
	}
}

func TestCrossValidateBuckets(t *testing.T) {
	table := []TableLoop{
		tableLoop("10.0.0.0/8", 0, 100*time.Millisecond, "a", "b"),            // confirmed
		tableLoop("172.16.0.0/16", 0, 100*time.Millisecond, "c", "d"),         // table-only: no trace
		tableLoop("192.168.0.0/24", 10*time.Second, 11*time.Second, "e", "f"), // table-only: window miss
	}
	traces := []TraceLoop{
		{Prefix: routing.MustParsePrefix("10.1.0.0/16"), Start: 50 * time.Millisecond, End: 90 * time.Millisecond},
		{Prefix: routing.MustParsePrefix("192.168.0.0/24"), Start: 20 * time.Second, End: 21 * time.Second}, // trace-only: too late
		{Prefix: routing.MustParsePrefix("203.0.113.0/24"), Start: 0, End: time.Millisecond},                // trace-only: no table loop covers it
	}
	d := CrossValidate(table, traces, DiffOptions{Slack: 100 * time.Millisecond})
	if len(d.Confirmed) != 1 || len(d.TableOnly) != 2 || len(d.TraceOnly) != 2 {
		t.Fatalf("buckets = %d/%d/%d, want 1/2/2\n%+v", len(d.Confirmed), len(d.TableOnly), len(d.TraceOnly), d)
	}
	c := d.Confirmed[0]
	if c.Table.Routers[0] != "a" || len(c.Traces) != 1 || c.Traces[0].Prefix != routing.MustParsePrefix("10.1.0.0/16") {
		t.Errorf("confirmed pairing wrong: %+v", c)
	}
}

func TestCrossValidateSlackBridgesObservationLag(t *testing.T) {
	table := []TableLoop{tableLoop("10.0.0.0/8", 0, 100*time.Millisecond, "a", "b")}
	// Packets observed just after the table healed.
	traces := []TraceLoop{{
		Prefix: routing.MustParsePrefix("10.0.0.0/8"),
		Start:  150 * time.Millisecond,
		End:    200 * time.Millisecond,
	}}
	strict := CrossValidate(table, traces, DiffOptions{Slack: time.Nanosecond})
	if len(strict.Confirmed) != 0 {
		t.Fatalf("nanosecond slack should not bridge a 50ms gap")
	}
	relaxed := CrossValidate(table, traces, DiffOptions{}) // default 1s slack
	if len(relaxed.Confirmed) != 1 || len(relaxed.TraceOnly) != 0 {
		t.Fatalf("default slack failed to bridge: %+v", relaxed)
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	snap, _ := Synthetic(20, 100, 5)
	reports := ScanTimeline([]Snapshot{snap, snap, snap})
	loops := Collate(reports, time.Second)
	var traces []TraceLoop
	for _, l := range loops {
		for _, p := range l.Prefixes {
			traces = append(traces, TraceLoop{Prefix: p, Start: l.FirstSeen, End: l.LastSeen})
		}
	}
	d1 := CrossValidate(loops, traces, DiffOptions{})
	d2 := CrossValidate(Collate(ScanTimeline([]Snapshot{snap, snap, snap}), time.Second), traces, DiffOptions{})
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("rerun produced a different diff")
	}
	if len(d1.TableOnly) != 0 || len(d1.TraceOnly) != 0 {
		t.Errorf("self-derived traces must fully confirm: %+v", d1)
	}
}
