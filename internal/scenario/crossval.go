package scenario

import (
	"time"

	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/netsim"
)

// CrossVal is a backbone experiment instrumented for control-plane /
// data-plane cross-validation: alongside the packet tap it captures a
// timeline of FIB snapshots, so the trace detector's loops can be
// checked against the routing tables that caused them (and vice
// versa).
type CrossVal struct {
	*Backbone
	// Snapshots is the captured FIB timeline, ascending in time. A new
	// full capture is stored whenever any router's FIB changed since
	// the previous tick; quiet ticks append a shallow copy (shared
	// router data, new timestamp) at the heartbeat cadence so loop
	// lifetimes remain visible to Collate without duplicating tables.
	Snapshots []fibscan.Snapshot

	every     time.Duration
	heartbeat time.Duration
	lastSum   uint64
	captured  bool
}

// BuildCrossVal builds the experiment and schedules FIB capture every
// `every` of virtual time (default 25ms). Capture is change-driven:
// each tick sums the routers' FIB revisions — revisions only ever
// increment, so an unchanged sum proves an unchanged network — and
// stores a snapshot only on change or at the heartbeat (max(1s,
// every)), keeping memory proportional to routing activity rather than
// run length.
func BuildCrossVal(spec Spec, every time.Duration) *CrossVal {
	if every <= 0 {
		every = 25 * time.Millisecond
	}
	heartbeat := time.Second
	if every > heartbeat {
		heartbeat = every
	}
	cv := &CrossVal{
		Backbone:  Build(spec),
		every:     every,
		heartbeat: heartbeat,
	}
	cv.tick()
	return cv
}

// revisionSum folds every router's FIB revision; any table change
// strictly increases it.
func (cv *CrossVal) revisionSum() uint64 {
	var sum uint64
	for _, r := range cv.Net.Routers() {
		sum += r.FIBRevision()
	}
	return sum
}

// tick captures (if needed) and reschedules itself until the end of
// the drained run.
func (cv *CrossVal) tick() {
	now := cv.Net.Sim.Now()
	sum := cv.revisionSum()
	switch {
	case !cv.captured || sum != cv.lastSum:
		cv.Snapshots = append(cv.Snapshots, fibSnapshot(cv.Net))
		cv.captured = true
		cv.lastSum = sum
	case now-cv.lastTaken() >= netsim.Time(cv.heartbeat):
		// Heartbeat: same tables, new timestamp; the router data is
		// shared with the previous capture, which is safe because
		// fibSnapshot copied it out of the live FIBs.
		prev := cv.Snapshots[len(cv.Snapshots)-1]
		cv.Snapshots = append(cv.Snapshots, fibscan.Snapshot{
			TakenNs: int64(now),
			Routers: prev.Routers,
		})
	}
	if now <= netsim.Time(cv.Spec.Duration)+30*time.Second {
		cv.Net.Sim.At(now+netsim.Time(cv.every), cv.tick)
	}
}

// fibSnapshot copies the network's current FIB state into the
// analyzer's self-contained snapshot model.
func fibSnapshot(n *netsim.Network) fibscan.Snapshot {
	fs := n.SnapshotFIBs()
	s := fibscan.Snapshot{TakenNs: int64(fs.At), Routers: make([]fibscan.RouterFIB, len(fs.Routers))}
	for i, src := range fs.Routers {
		rf := &s.Routers[i]
		*rf = fibscan.RouterFIB{Name: src.Name, Revision: src.Revision, Locals: src.Locals, Routes: make([]fibscan.Route, len(src.Routes))}
		for j, e := range src.Routes {
			rf.Routes[j] = fibscan.Route{Prefix: e.Prefix, NextHop: e.Value}
		}
	}
	return s
}

func (cv *CrossVal) lastTaken() netsim.Time {
	return netsim.Time(cv.Snapshots[len(cv.Snapshots)-1].TakenNs)
}

// TraceLoops converts trace-detector output into the form
// fibscan.CrossValidate consumes.
func TraceLoops(res *core.Result) []fibscan.TraceLoop {
	out := make([]fibscan.TraceLoop, 0, len(res.Loops))
	for _, l := range res.Loops {
		out = append(out, fibscan.TraceLoop{Prefix: l.Prefix, Start: l.Start, End: l.End})
	}
	return out
}

// SnapshotFile packages the captured timeline in the shared on-disk
// format.
func (cv *CrossVal) SnapshotFile() *fibscan.SnapshotFile {
	return &fibscan.SnapshotFile{
		Version:   fibscan.FileVersion,
		Network:   cv.Spec.Name,
		Snapshots: cv.Snapshots,
	}
}
