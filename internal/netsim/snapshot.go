package netsim

import (
	"loopscope/internal/fibscan"
	"loopscope/internal/routing"
)

// SnapshotFIBs captures every router's FIB, projected to next-hop router
// names, and its locally delivered prefixes, in creation (NodeID) order,
// stamped with the current virtual time and each router's FIBRevision.
// The simulator serialises all FIB mutations through its event loop, so
// a snapshot taken between events is atomic across the whole network —
// the property real control planes lack and the reason the trace/table
// cross-validation is interesting. The returned snapshot shares nothing
// with the live network, so the static analyzer (internal/fibscan) needs
// no live Network behind it.
func (n *Network) SnapshotFIBs() fibscan.Snapshot {
	snap := fibscan.Snapshot{TakenNs: int64(n.Sim.Now()), Routers: make([]fibscan.RouterFIB, len(n.routers))}
	for i, r := range n.routers {
		rf := fibscan.RouterFIB{Name: r.Name, Revision: r.fibRevision, Routes: []fibscan.Route{}, Locals: r.LocalPrefixes()}
		r.fib.Walk(func(p routing.Prefix, l *Link) bool {
			rf.Routes = append(rf.Routes, fibscan.Route{Prefix: p, NextHop: l.To.Name})
			return true
		})
		snap.Routers[i] = rf
	}
	return snap
}
