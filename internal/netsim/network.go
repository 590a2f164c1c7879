package netsim

import (
	"fmt"
	"time"

	"loopscope/internal/events"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// LinkParams configures both directions of a Connect call.
type LinkParams struct {
	Bandwidth   float64 // bits per second
	PropDelay   Time
	QueueLimit  int
	DetectDelay Time
	// CostAB and CostBA are the IGP metrics of the two directions
	// created by Connect (zero means 1).
	CostAB, CostBA int
	// LossRate is the per-direction line-error drop probability.
	LossRate float64
	// ProcJitter is the per-packet forwarding-latency jitter bound.
	ProcJitter Time
}

// DefaultLinkParams approximates an OC-12 backbone link: 622 Mbps,
// 1 ms propagation, a 256-packet FIFO, 20 ms failure detection.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		Bandwidth:   622e6,
		PropDelay:   time.Millisecond,
		QueueLimit:  256,
		DetectDelay: 20 * time.Millisecond,
	}
}

// MinuteBucket aggregates per-minute loss accounting (the paper's §VI
// loss analysis is per-minute).
type MinuteBucket struct {
	Injected  uint64
	Delivered uint64
	Drops     [numDropReasons]uint64

	// LoopDrops counts TTL-expiry drops of packets that had been
	// caught in a forwarding cycle — the loss attributable to loops.
	LoopDrops uint64
	// CleanDelivered / CleanDelaySum aggregate never-looped
	// deliveries per minute, for the collateral-delay analysis (§I:
	// loops raise utilization and therefore the delay of traffic that
	// is not itself looping) and as the §VI extra-delay baseline.
	CleanDelivered uint64
	CleanDelaySum  Time
	// LoopEvents counts ground-truth forwarding-cycle observations in
	// the minute.
	LoopEvents uint64
}

// TotalDrops sums all drop reasons.
func (m *MinuteBucket) TotalDrops() uint64 {
	var t uint64
	for _, d := range m.Drops {
		t += d
	}
	return t
}

// Network is a set of routers and links driven by one Simulator.
type Network struct {
	Sim     *Simulator
	routers []*Router
	links   []*Link

	// ICMPMinInterval rate-limits ICMP error generation per router.
	ICMPMinInterval Time
	// EchoReplies controls whether delivered ICMP echo requests
	// generate replies.
	EchoReplies bool
	// OnDeliver, when set, observes every locally delivered packet at
	// its delivery router (host-side instrumentation; the active-
	// probing baseline uses it to receive ICMP errors).
	OnDeliver func(*Router, *TransitPacket)
	// Journal, when set, records link failures/repairs and (via the
	// routing protocols) control-plane activity for loop-cause
	// correlation. A nil journal records nothing.
	Journal *events.Journal

	// FateFilter selects which packet fates to retain in Fates. The
	// default keeps packets that looped and drops the rest (counters
	// still aggregate everything). Set to nil to keep none, or to
	// func(*Fate) bool { return true } to keep all.
	FateFilter func(*Fate) bool
	// Fates holds retained packet outcomes.
	Fates []Fate
	// GroundTruth holds every observed forwarding-cycle event.
	GroundTruth []groundTruthLoop
	// Minutes holds per-minute loss accounting.
	Minutes []MinuteBucket

	Injected  uint64
	Delivered uint64
	Drops     [numDropReasons]uint64

	// CleanDelivered / CleanDelaySum aggregate the delay of delivered
	// packets that never looped, the baseline for the paper's §VI
	// extra-delay measurement.
	CleanDelivered uint64
	CleanDelaySum  Time
	// EscapedDelivered counts delivered packets that had looped.
	EscapedDelivered uint64

	nextUID uint64
	ipID    uint16
	lossRNG *stats.RNG
}

// NewNetwork returns an empty network on a fresh simulator.
func NewNetwork() *Network {
	n := &Network{
		Sim:             newSimulator(),
		ICMPMinInterval: 500 * time.Microsecond,
		EchoReplies:     true,
		lossRNG:         stats.NewRNG(0x1055),
	}
	n.FateFilter = func(f *Fate) bool { return f.LoopCount > 0 }
	return n
}

// AddRouter creates a router with the given name and loopback address.
func (n *Network) AddRouter(name string, loopback packet.Addr) *Router {
	r := &Router{
		net:      n,
		ID:       NodeID(len(n.routers)),
		Name:     name,
		Loopback: loopback,
		fib:      routing.NewTable[*Link](),
		local:    routing.NewTable[struct{}](),
	}
	n.routers = append(n.routers, r)
	return r
}

// Router returns the router with the given ID.
func (n *Network) Router(id NodeID) *Router { return n.routers[id] }

// Routers returns all routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }

// Connect creates a bidirectional link between a and b (two
// unidirectional links cross-referenced via Reverse) and returns the
// a→b direction.
func (n *Network) Connect(a, b *Router, p LinkParams) *Link {
	if p.Bandwidth <= 0 {
		panic("netsim: Connect with non-positive bandwidth")
	}
	if p.QueueLimit <= 0 {
		p.QueueLimit = 256
	}
	if p.CostAB <= 0 {
		p.CostAB = 1
	}
	if p.CostBA <= 0 {
		p.CostBA = 1
	}
	ab := &Link{
		net: n, Name: fmt.Sprintf("%s->%s", a.Name, b.Name),
		From: a, To: b, up: true,
		Bandwidth: p.Bandwidth, PropDelay: p.PropDelay,
		QueueLimit: p.QueueLimit, DetectDelay: p.DetectDelay,
		IGPCost: p.CostAB, LossRate: p.LossRate, ProcJitter: p.ProcJitter,
	}
	ba := &Link{
		net: n, Name: fmt.Sprintf("%s->%s", b.Name, a.Name),
		From: b, To: a, up: true,
		Bandwidth: p.Bandwidth, PropDelay: p.PropDelay,
		QueueLimit: p.QueueLimit, DetectDelay: p.DetectDelay,
		IGPCost: p.CostBA, LossRate: p.LossRate, ProcJitter: p.ProcJitter,
	}
	ab.Reverse, ba.Reverse = ba, ab
	a.links = append(a.links, ab)
	b.links = append(b.links, ba)
	n.links = append(n.links, ab, ba)
	return ab
}

// FailLink schedules both directions of l to fail at time at. Each
// endpoint learns of the failure after its direction's DetectDelay.
func (n *Network) FailLink(l *Link, at Time) {
	n.Sim.At(at, func() {
		n.Journal.Append(events.Event{
			At: n.Sim.Now(), Kind: events.LinkFailed, Subject: l.Name,
		})
		for _, dir := range []*Link{l, l.Reverse} {
			dir := dir
			if !dir.up {
				continue
			}
			dir.up = false
			n.Sim.Schedule(dir.DetectDelay, func() {
				n.Journal.Append(events.Event{
					At: n.Sim.Now(), Kind: events.LinkDownDetected,
					Node: dir.From.Name, Subject: dir.Name,
				})
				for _, fn := range dir.From.onLinkDown {
					fn(dir)
				}
			})
		}
	})
}

// RepairLink schedules both directions of l to come back up at time
// at. Endpoints learn of the repair after DetectDelay as well
// (adjacency re-establishment).
func (n *Network) RepairLink(l *Link, at Time) {
	n.Sim.At(at, func() {
		n.Journal.Append(events.Event{
			At: n.Sim.Now(), Kind: events.LinkRepaired, Subject: l.Name,
		})
		for _, dir := range []*Link{l, l.Reverse} {
			dir := dir
			if dir.up {
				continue
			}
			dir.up = true
			n.Sim.Schedule(dir.DetectDelay, func() {
				n.Journal.Append(events.Event{
					At: n.Sim.Now(), Kind: events.LinkUpDetected,
					Node: dir.From.Name, Subject: dir.Name,
				})
				for _, fn := range dir.From.onLinkUp {
					fn(dir)
				}
			})
		}
	})
}

// nextIPID hands out IP identification values for router-generated
// packets.
func (n *Network) nextIPID() uint16 {
	n.ipID++
	return n.ipID
}

// Inject introduces a packet into the network at router r, as if a
// directly attached host (or the router itself) originated it.
func (n *Network) Inject(r *Router, pkt packet.Packet) *TransitPacket {
	n.nextUID++
	tp := &TransitPacket{
		Pkt:      pkt,
		UID:      n.nextUID,
		Injected: n.Sim.Now(),
	}
	n.Injected++
	n.minute().Injected++
	r.receive(tp)
	return tp
}

// minute returns the accounting bucket for the current virtual minute.
func (n *Network) minute() *MinuteBucket {
	idx := int(n.Sim.Now() / time.Minute)
	for len(n.Minutes) <= idx {
		n.Minutes = append(n.Minutes, MinuteBucket{})
	}
	return &n.Minutes[idx]
}

func (n *Network) finishFate(tp *TransitPacket, f Fate) {
	if n.FateFilter != nil && n.FateFilter(&f) {
		n.Fates = append(n.Fates, f)
	}
	if tp.OnFate != nil {
		tp.OnFate(f)
	}
}

// drop accounts for a discarded packet.
func (n *Network) drop(tp *TransitPacket, reason DropReason) {
	n.Drops[reason]++
	m := n.minute()
	m.Drops[reason]++
	if reason == DropTTLExpired && tp.LoopCount > 0 {
		m.LoopDrops++
	}
	now := n.Sim.Now()
	n.finishFate(tp, Fate{
		UID: tp.UID, Delivered: false, Reason: reason,
		At: now, Delay: now - tp.Injected, Hops: tp.Hops,
		LoopCount: tp.LoopCount, LoopSize: tp.LoopSize,
		Src: tp.Pkt.IP.Src, Dst: tp.Pkt.IP.Dst, Class: packet.Classify(&tp.Pkt),
	})
}

// deliver accounts for a packet reaching its destination and triggers
// host-side responses (ICMP echo replies).
func (n *Network) deliver(r *Router, tp *TransitPacket) {
	n.Delivered++
	m := n.minute()
	m.Delivered++
	now := n.Sim.Now()
	if tp.LoopCount == 0 {
		n.CleanDelivered++
		n.CleanDelaySum += now - tp.Injected
		m.CleanDelivered++
		m.CleanDelaySum += now - tp.Injected
	} else {
		n.EscapedDelivered++
	}
	n.finishFate(tp, Fate{
		UID: tp.UID, Delivered: true,
		At: now, Delay: now - tp.Injected, Hops: tp.Hops,
		LoopCount: tp.LoopCount, LoopSize: tp.LoopSize,
		Dst: tp.Pkt.IP.Dst, Class: packet.Classify(&tp.Pkt),
	})
	if n.OnDeliver != nil {
		n.OnDeliver(r, tp)
	}
	if n.EchoReplies && tp.Pkt.Kind == packet.KindICMP &&
		tp.Pkt.HasTransport && tp.Pkt.ICMP.Type == packet.ICMPEchoRequest {
		reply := packet.Packet{
			IP: packet.IPv4Header{
				Version: 4, IHL: 5, TTL: 64,
				Protocol: packet.ProtoICMP,
				Src:      tp.Pkt.IP.Dst, Dst: tp.Pkt.IP.Src,
				ID: n.nextIPID(),
			},
			Kind: packet.KindICMP,
			ICMP: packet.ICMPHeader{
				Type: packet.ICMPEchoReply,
				Rest: tp.Pkt.ICMP.Rest,
			},
			HasTransport: true,
			PayloadLen:   tp.Pkt.PayloadLen,
			PayloadSeed:  tp.Pkt.PayloadSeed,
		}
		n.Inject(r, reply)
	}
}

// recordLoop appends a ground-truth loop observation.
func (n *Network) recordLoop(g groundTruthLoop) {
	n.GroundTruth = append(n.GroundTruth, g)
	n.minute().LoopEvents++
}

// GroundTruthWindows aggregates ground-truth loop events into per-/24
// loop intervals, directly comparable with detector output: events for
// the same destination /24 separated by less than gap are one loop.
func (n *Network) GroundTruthWindows(gap Time) []LoopWindow {
	byPrefix := make(map[routing.Prefix][]groundTruthLoop)
	for _, g := range n.GroundTruth {
		p := routing.PrefixOf(g.Dst, 24)
		byPrefix[p] = append(byPrefix[p], g)
	}
	var out []LoopWindow
	for p, evs := range byPrefix {
		// Events were recorded in virtual-time order per prefix.
		cur := LoopWindow{Prefix: p, Start: evs[0].At, End: evs[0].At, Events: 1, MaxLoopSize: evs[0].LoopSize}
		for _, g := range evs[1:] {
			if g.At-cur.End <= gap {
				cur.End = g.At
				cur.Events++
				if g.LoopSize > cur.MaxLoopSize {
					cur.MaxLoopSize = g.LoopSize
				}
			} else {
				out = append(out, cur)
				cur = LoopWindow{Prefix: p, Start: g.At, End: g.At, Events: 1, MaxLoopSize: g.LoopSize}
			}
		}
		out = append(out, cur)
	}
	return out
}

// CleanMeanDelay returns the average delay of delivered packets that
// never looped, or 0 when none were delivered.
func (n *Network) CleanMeanDelay() Time {
	if n.CleanDelivered == 0 {
		return 0
	}
	return n.CleanDelaySum / Time(n.CleanDelivered)
}

// LoopWindow is a ground-truth loop interval for one destination /24.
type LoopWindow struct {
	Prefix      routing.Prefix
	Start, End  Time
	Events      int
	MaxLoopSize int
}
