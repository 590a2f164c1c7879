// Package fibscan detects routing loops statically, from forwarding
// tables alone — the control-plane complement to the trace-based
// detector in internal/core, after Boufkhad et al., "Efficient Loop
// Detection in Forwarding Networks and Representing Atoms in a Field
// of Sets".
//
// The input is a consistent set of per-router FIB snapshots (prefix →
// next-hop router name, plus locally delivered prefixes). The
// destination address space is partitioned into header-space atoms:
// maximal address ranges on which every router's forwarding decision
// is constant. Because all FIBs are longest-prefix-match tables, atom
// boundaries can only fall on the endpoints of prefixes present in
// some table, so the partition is computed exactly — no per-address
// probing and no sampling. For each atom the per-router next hops
// form a functional graph (out-degree at most one), whose cycles are
// precisely the forwarding loops any packet addressed into the atom
// would experience if it reached a cycle member. No packets needed.
//
// The scan is a sweep: each router's table is flattened once onto the
// global atom partition into its piecewise-constant forwarding function
// (the field-of-sets representation) by painting its routes shortest
// prefix first, so that a longer prefix overwrites those it nests in,
// which is longest-prefix match. Each router's
// function is kept as runs of atoms with one next hop, so memory is
// O(routers + entries + atoms). Adjacent atoms' graphs differ only at
// the routers whose run starts between them, so cycles are extracted by
// walking atom 0 from every router and each later atom only from those
// routers, with epoch-stamped visitation: the whole scan is O(entries +
// atoms + routers + run starts × path length) in time, not atoms ×
// routers — topologies far larger than packet-level simulation can
// drive.
//
// A timeline is read and scanned one snapshot at a time, and a snapshot
// costs what changed in it: the Reader does not decode again a router
// whose bytes repeat (decode ∝ the changed routers' bytes, plus one
// scanner pass over the rest); the Timeline re-flattens only routers
// whose tables moved (∝ their entries) and re-walks only atoms where a
// column moved (∝ the run starts on them × path length, after one pass
// over every run to bucket them by atom). What would make that unsound
// falls back to the same code with every router changed and every atom
// dirty (see Timeline). Equal bytes and equal tables license reuse; the
// revision field is carried and never consulted. Held at any time: one
// snapshot's tables and each router's run-length column, whatever the
// length.
//
// Results can be cross-validated against the trace detector (diff.go):
// loops the tables predict but packets never hit, versus loops packets
// saw that the snapshot timeline missed.
package fibscan

import (
	"encoding/json"
	"fmt"
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

// Route is one FIB row: destination prefix → next-hop router name.
type Route struct {
	Prefix  routing.Prefix `json:"prefix"`
	NextHop string         `json:"nextHop"`
}

// RouterFIB is one router's forwarding state in a snapshot.
type RouterFIB struct {
	Name string `json:"name"`
	// Revision is the router's FIB revision counter at capture time
	// (netsim.Router.FIBRevision for simulated snapshots).
	Revision uint64  `json:"revision"`
	Routes   []Route `json:"routes"`
	// Locals are prefixes the router delivers locally. Local delivery
	// wins over any FIB match, so a cycle through an owning router is
	// not a loop traffic could experience and is not reported.
	Locals []routing.Prefix `json:"locals,omitempty"`
}

// Snapshot is a consistent capture of every router's FIB at one
// instant.
type Snapshot struct {
	// TakenNs is the capture time in nanoseconds since the start of
	// the run (simulated time for netsim snapshots).
	TakenNs int64       `json:"takenNs"`
	Routers []RouterFIB `json:"routers"`
}

// AddrRange is an inclusive range of destination addresses — one or
// more adjacent header-space atoms with identical forwarding
// behaviour.
type AddrRange struct {
	lo, hi uint64 // half-open [lo, hi)
}

// newAddrRange builds the inclusive range [first, last].
func newAddrRange(first, last packet.Addr) AddrRange {
	return AddrRange{lo: uint64(first.Uint32()), hi: uint64(last.Uint32()) + 1}
}

// first returns the lowest address of the range.
func (r AddrRange) first() packet.Addr { return packet.AddrFromUint32(uint32(r.lo)) }

// last returns the highest address of the range (inclusive).
func (r AddrRange) last() packet.Addr { return packet.AddrFromUint32(uint32(r.hi - 1)) }

// overlaps reports whether the range shares any address with prefix p.
func (r AddrRange) overlaps(p routing.Prefix) bool {
	plo, phi := p.Range()
	return r.lo < phi && plo < r.hi
}

// String formats the range as "first-last".
func (r AddrRange) String() string {
	return fmt.Sprintf("%s-%s", r.first(), r.last())
}

// MarshalJSON encodes the range as {"first":"a.b.c.d","last":"a.b.c.d"}.
func (r AddrRange) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		First string `json:"first"`
		Last  string `json:"last"`
	}{r.first().String(), r.last().String()})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *AddrRange) UnmarshalJSON(b []byte) error {
	var raw struct {
		First string `json:"first"`
		Last  string `json:"last"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	first, err := packet.ParseAddr(raw.First)
	if err != nil {
		return err
	}
	last, err := packet.ParseAddr(raw.Last)
	if err != nil {
		return err
	}
	if last.Uint32() < first.Uint32() {
		return fmt.Errorf("fibscan: inverted range %s-%s", raw.First, raw.Last)
	}
	*r = newAddrRange(first, last)
	return nil
}

// Cycle is one forwarding loop found in a snapshot: a set of routers
// each pointing at the next for every destination in Ranges.
type Cycle struct {
	// Routers lists the cycle members in forwarding order, rotated so
	// the member earliest in the snapshot comes first.
	Routers []string `json:"routers"`
	// Ranges are the affected destination ranges: maximal runs of
	// adjacent atoms forwarded around this exact cycle, ascending.
	Ranges []AddrRange `json:"ranges"`
	// Prefixes are the cycle members' own FIB prefixes intersecting
	// Ranges — the routes steering traffic around the loop — sorted by
	// range start, then length, and deduplicated. Another router's
	// route (an ingress default, say) reaches the loop but does not
	// define it, and is left out.
	Prefixes []routing.Prefix `json:"prefixes"`
}

// Len returns the loop size in routers (the TTL delta a packet
// crossing one cycle link once per revolution would show).
func (c *Cycle) Len() int { return len(c.Routers) }

// Report is the result of scanning one snapshot.
type Report struct {
	// TakenNs echoes the snapshot capture time.
	TakenNs int64 `json:"takenNs"`
	// Routers is the number of routers scanned.
	Routers int `json:"routers"`
	// Atoms is the number of header-space atoms the address space
	// partitioned into.
	Atoms int `json:"atoms"`
	// Cycles lists every forwarding loop, ordered by first affected
	// address then by membership.
	Cycles []Cycle `json:"cycles"`
	// Warnings records degradations (routers referenced as next hops
	// but missing from the snapshot, duplicate names); the scan
	// completes on the analysable subgraph instead of failing.
	Warnings []string `json:"warnings,omitempty"`
}

// Taken returns the snapshot capture time.
func (r *Report) Taken() time.Duration { return time.Duration(r.TakenNs) }
