package netsim

import (
	"testing"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
)

func TestSnapshotFIBs(t *testing.T) {
	n := NewNetwork()
	a := n.AddRouter("a", packet.AddrFrom(10, 0, 0, 1))
	b := n.AddRouter("b", packet.AddrFrom(10, 0, 0, 2))
	c := n.AddRouter("c", packet.AddrFrom(10, 0, 0, 3))
	n.Connect(a, b, DefaultLinkParams())
	n.Connect(b, c, DefaultLinkParams())

	dst := routing.MustParsePrefix("192.0.2.0/24")
	a.SetRoute(dst, b.ID)
	b.SetRoute(dst, c.ID)
	c.AttachPrefix(dst)

	snap := n.SnapshotFIBs()
	if len(snap.Routers) != 3 {
		t.Fatalf("routers = %d, want 3", len(snap.Routers))
	}
	if snap.TakenNs != int64(n.Sim.Now()) {
		t.Errorf("TakenNs = %v, want %v", snap.TakenNs, n.Sim.Now())
	}
	ra := snap.Routers[0]
	if ra.Name != "a" {
		t.Fatalf("router 0 = %q, want a", ra.Name)
	}
	if ra.Revision != a.FIBRevision() || ra.Revision == 0 {
		t.Errorf("a revision = %d, want %d (non-zero)", ra.Revision, a.FIBRevision())
	}
	found := false
	for _, e := range ra.Routes {
		if e.Prefix == dst && e.NextHop == "b" {
			found = true
		}
	}
	if !found {
		t.Errorf("a's snapshot lacks %v -> b: %v", dst, ra.Routes)
	}
	rc := snap.Routers[2]
	hasLocal := false
	for _, p := range rc.Locals {
		if p == dst {
			hasLocal = true
		}
	}
	if !hasLocal {
		t.Errorf("c's snapshot lacks local %v: %v", dst, rc.Locals)
	}

	// The snapshot must be detached from the live FIB: mutating the
	// network afterwards may not alter it.
	before := len(ra.Routes)
	a.RemoveRoute(dst)
	if len(snap.Routers[0].Routes) != before {
		t.Error("snapshot aliases the live FIB")
	}

	// Revisions advance.
	snap2 := n.SnapshotFIBs()
	if snap2.Routers[0].Revision <= ra.Revision {
		t.Errorf("revision did not advance: %d -> %d", ra.Revision, snap2.Routers[0].Revision)
	}
}
