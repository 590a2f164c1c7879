package netsim

import (
	"fmt"
	"time"
)

// tapFunc observes packets crossing a link, timestamped at the instant the
// last bit leaves the transmitting router — the same observation point
// as an optical splitter feeding a capture card.
type tapFunc func(at Time, tp *TransitPacket)

// Link is one unidirectional link. Connect creates them in pairs;
// Reverse points at the opposite direction.
type Link struct {
	net     *Network
	Name    string
	From    *Router
	To      *Router
	Reverse *Link

	// Bandwidth is the link rate in bits per second.
	Bandwidth float64
	// PropDelay is the one-way propagation delay.
	PropDelay Time
	// QueueLimit caps the number of packets queued or in
	// transmission; arrivals beyond it are tail-dropped.
	QueueLimit int
	// DetectDelay is how long the transmitting router takes to detect
	// a failure of this link.
	DetectDelay Time
	// IGPCost is the routing metric of this direction. Asymmetric
	// costs are common traffic engineering and are what lets
	// transient loops longer than two hops cross a single link.
	IGPCost int
	// LossRate is the probability a packet is lost on this direction
	// (line errors); the background against which loop loss is
	// measured.
	LossRate float64
	// ProcJitter adds a deterministic per-packet forwarding-latency
	// jitter in [0, ProcJitter): lookup and switching-fabric variance.
	// It is derived by hashing the packet UID with the link name, so
	// simulations stay reproducible. The paper's Figure 8 notes this
	// kind of "random noise" blurs the duration steps.
	ProcJitter Time

	nameHash uint64

	up        bool
	busyUntil Time
	inQueue   int
	taps      []tapFunc
}

// Up reports whether the link is currently up.
func (l *Link) Up() bool { return l.up }

// AddTap registers a tap on this link.
func (l *Link) AddTap(t tapFunc) { l.taps = append(l.taps, t) }

// txTime returns the serialisation delay of wireLen bytes.
func (l *Link) txTime(wireLen int) Time {
	return time.Duration(float64(wireLen*8) / l.Bandwidth * float64(time.Second))
}

// send queues tp for transmission. Drops (link down, full queue) are
// accounted against the network.
func (l *Link) send(tp *TransitPacket) {
	sim := l.net.Sim
	if !l.up {
		l.net.drop(tp, dropLinkDown)
		return
	}
	if l.inQueue >= l.QueueLimit {
		l.net.drop(tp, dropQueueFull)
		return
	}
	if l.LossRate > 0 && l.net.lossRNG.Bool(l.LossRate) {
		l.net.drop(tp, dropLineError)
		return
	}
	l.inQueue++
	now := sim.Now()
	start := now
	if l.ProcJitter > 0 {
		start += l.jitterFor(tp.UID)
	}
	if l.busyUntil > start {
		start = l.busyUntil
	}
	end := start + l.txTime(tp.Pkt.WireLen())
	l.busyUntil = end
	sim.At(end, func() {
		l.inQueue--
		for _, tap := range l.taps {
			tap(end, tp)
		}
		// Propagation: the packet is on the fibre; a failure after
		// this point does not destroy it.
		sim.At(end+l.PropDelay, func() {
			l.To.receive(tp)
		})
	})
}

// jitterFor derives the packet's deterministic processing jitter.
func (l *Link) jitterFor(uid uint64) Time {
	if l.nameHash == 0 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(l.Name); i++ {
			h ^= uint64(l.Name[i])
			h *= 1099511628211
		}
		l.nameHash = h | 1
	}
	z := uid ^ l.nameHash
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return Time(z % uint64(l.ProcJitter))
}

// String identifies the link for logs and errors.
func (l *Link) String() string {
	return fmt.Sprintf("%s->%s", l.From.Name, l.To.Name)
}
