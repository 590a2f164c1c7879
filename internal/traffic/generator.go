package traffic

import (
	"time"

	"loopscope/internal/netsim"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
)

// Ingress is one traffic entry point: packets injected at Router with
// source addresses drawn from Hosts.
type Ingress struct {
	Router *netsim.Router
	Hosts  routing.Prefix
}

// Config wires a Generator to a network.
type Config struct {
	Mix Mix
	// PacketsPerSecond is the target aggregate injection rate across
	// all protocols.
	PacketsPerSecond float64
	// Start and Duration bound the injection window (flows started
	// near the end may finish after it).
	Start    time.Duration
	Duration time.Duration
	// Ingresses are the entry points, chosen uniformly per flow.
	Ingresses []Ingress
	// DestPrefixes are the advertised destination networks, ranked by
	// Zipf popularity in slice order.
	DestPrefixes []routing.Prefix
	// ZipfS is the Zipf exponent for destination popularity.
	ZipfS float64
	// McastGroups are multicast destinations used by the MCAST
	// fraction.
	McastGroups []packet.Addr
	// AnomalousICMPHost, when set, emits ICMP messages with reserved
	// type fields from a single host — the oddball the paper reports
	// seeing on Backbones 1 and 2.
	AnomalousICMPHost bool
	// PingOnAbort is the probability that a failed TCP flow triggers
	// an ICMP echo train towards its destination, the
	// "hosts ping when they see loss" behaviour the paper
	// hypothesises behind looped ICMP.
	PingOnAbort float64
}

// Generator drives synthetic traffic into a network.
type Generator struct {
	net *netsim.Network
	cfg Config
	rng *stats.RNG

	zipf  *stats.Zipf
	ipids map[packet.Addr]uint16

	// Stats
	FlowsStarted int
	FlowsOK      int
	FlowsAborted int
	PingTrains   int
	PacketsSent  uint64
}

// NewGenerator validates cfg and returns a generator; call Start to
// schedule injections.
func NewGenerator(net *netsim.Network, cfg Config, rng *stats.RNG) *Generator {
	if len(cfg.Ingresses) == 0 {
		panic("traffic: no ingresses configured")
	}
	if len(cfg.DestPrefixes) == 0 {
		panic("traffic: no destination prefixes configured")
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.1
	}
	g := &Generator{
		net:   net,
		cfg:   cfg,
		rng:   rng,
		ipids: make(map[packet.Addr]uint16),
		zipf:  stats.NewZipf(rng.Fork(), cfg.ZipfS, len(cfg.DestPrefixes)),
	}
	return g
}

// meanFlowPackets estimates the mean TCP flow length by sampling the
// configured Pareto distribution.
func (g *Generator) meanFlowPackets() float64 {
	m := g.cfg.Mix
	r := stats.NewRNG(42)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += r.Pareto(m.FlowPacketsAlpha, m.FlowPacketsMin, m.FlowPacketsMax)
	}
	return sum / n
}

// Start schedules all injection processes on the simulator.
func (g *Generator) Start() {
	m := g.cfg.Mix
	pps := g.cfg.PacketsPerSecond
	// TCP packets arrive via flows; convert the packet budget into a
	// flow arrival rate using the mean flow length (+2 for the
	// SYN/FIN bookends).
	flowRate := pps * m.TCPFrac / (g.meanFlowPackets() + 2)
	g.arrivalLoop(flowRate, func() { g.startFlow() })
	udpStream := m.UDPStreamPackets
	if udpStream < 1 {
		udpStream = 1
	}
	g.arrivalLoop(pps*m.UDPFrac/udpStream, func() { g.startUDPStream() })
	g.arrivalLoop(pps*m.ICMPFrac, func() { g.sendPing() })
	g.arrivalLoop(pps*m.McastFrac, func() { g.sendMcast() })
	other := 1 - m.TCPFrac - m.UDPFrac - m.ICMPFrac - m.McastFrac
	if other > 0 {
		g.arrivalLoop(pps*other, func() { g.sendOther() })
	}
	if g.cfg.AnomalousICMPHost {
		g.startAnomalousHost()
	}
}

// arrivalLoop schedules a Poisson arrival process at the given rate
// for the configured window.
func (g *Generator) arrivalLoop(rate float64, fire func()) {
	if rate <= 0 {
		return
	}
	end := g.cfg.Start + g.cfg.Duration
	mean := float64(time.Second) / rate
	var tick func()
	next := func() time.Duration { return time.Duration(g.rng.Exp(mean)) }
	tick = func() {
		if g.net.Sim.Now() >= end {
			return
		}
		fire()
		g.net.Sim.Schedule(next(), tick)
	}
	g.net.Sim.At(g.cfg.Start+next(), tick)
}

// hostIn picks a pseudo-random host address inside a prefix, avoiding
// the all-zeros and all-ones host parts when there is room.
func (g *Generator) hostIn(p routing.Prefix) packet.Addr {
	span := 1
	if p.Bits < 32 {
		span = 1 << (32 - p.Bits)
	}
	if span <= 2 {
		return p.Addr
	}
	off := 1 + g.rng.Intn(span-2)
	return packet.AddrFromUint32(p.Addr.Uint32() + uint32(off))
}

// nextIPID returns the per-host IP identification counter, emulating
// the per-stack counters real hosts use — replicas of one packet share
// an ID; distinct packets from one host do not.
func (g *Generator) nextIPID(src packet.Addr) uint16 {
	id := g.ipids[src] + 1
	if id == 0 {
		id = 1
	}
	g.ipids[src] = id
	return id
}

func (g *Generator) pickIngress() Ingress {
	return g.cfg.Ingresses[g.rng.Intn(len(g.cfg.Ingresses))]
}

func (g *Generator) pickDst() packet.Addr {
	p := g.cfg.DestPrefixes[g.zipf.Sample()]
	return g.hostIn(p)
}

func (g *Generator) pickTTL() uint8 {
	ttls := g.cfg.Mix.InitialTTLs
	w := make([]float64, len(ttls))
	for i, t := range ttls {
		w[i] = t.Weight
	}
	return ttls[g.rng.WeightedChoice(w)].TTL
}

func (g *Generator) pickSize(sizes []sizeWeight) int {
	w := make([]float64, len(sizes))
	for i, s := range sizes {
		w[i] = s.Weight
	}
	return sizes[g.rng.WeightedChoice(w)].Payload
}

var wellKnownPorts = []uint16{80, 8080, 443, 25, 110, 53, 119, 21}

func (g *Generator) pickDPort() uint16 {
	return wellKnownPorts[g.rng.Intn(len(wellKnownPorts))]
}

// inject sends one packet and counts it.
func (g *Generator) inject(r *netsim.Router, pkt packet.Packet, onFate func(netsim.Fate)) {
	g.PacketsSent++
	tp := g.net.Inject(r, pkt)
	tp.OnFate = onFate
}

// --- TCP flows -------------------------------------------------------

type flow struct {
	g            *Generator
	ing          Ingress
	src, dst     packet.Addr
	sport, dport uint16
	ttl          uint8
	remaining    int
	ackOnly      bool
	synTries     int
	dataTries    int
	seq          uint32
}

// startFlow begins a new closed-loop TCP flow: SYN first, data only
// after the SYN is delivered. Flows whose packets die in a loop stall
// and retransmit SYNs — which is why loops over-represent SYNs
// (Figure 6).
func (g *Generator) startFlow() {
	g.FlowsStarted++
	ing := g.pickIngress()
	f := &flow{
		g:     g,
		ing:   ing,
		src:   g.hostIn(ing.Hosts),
		dst:   g.pickDst(),
		sport: uint16(1024 + g.rng.Intn(64000)),
		dport: g.pickDPort(),
		ttl:   g.pickTTL(),
		seq:   g.rng.Uint32(),
	}
	f.remaining = int(g.rng.Pareto(g.cfg.Mix.FlowPacketsAlpha,
		g.cfg.Mix.FlowPacketsMin, g.cfg.Mix.FlowPacketsMax))
	f.ackOnly = g.rng.Bool(g.cfg.Mix.AckStreamFrac)
	f.sendSYN()
}

func (f *flow) packet(flags uint8, payload int) packet.Packet {
	f.seq += uint32(payload)
	if flags&(packet.TCPSyn|packet.TCPFin) != 0 {
		f.seq++
	}
	return packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5,
			TTL: f.ttl, Protocol: packet.ProtoTCP,
			Src: f.src, Dst: f.dst,
			ID:    f.g.nextIPID(f.src),
			Flags: packet.FlagDF,
		},
		Kind: packet.KindTCP,
		TCP: packet.TCPHeader{
			SrcPort: f.sport, DstPort: f.dport,
			Seq: f.seq, Ack: f.g.rng.Uint32(), Flags: flags,
			Window: 65535, DataOffset: 5,
		},
		HasTransport: true,
		PayloadLen:   payload,
		PayloadSeed:  f.g.rng.Uint64(),
	}
}

func (f *flow) sendSYN() {
	f.g.inject(f.ing.Router, f.packet(packet.TCPSyn, 0), func(fate netsim.Fate) {
		if fate.Delivered {
			f.g.net.Sim.Schedule(f.gap(), f.sendNext)
			return
		}
		f.synTries++
		if f.synTries > f.g.cfg.Mix.SYNRetries {
			f.abort()
			return
		}
		backoff := f.g.cfg.Mix.RetryTimeout << (f.synTries - 1)
		f.g.net.Sim.Schedule(backoff, f.sendSYN)
	})
}

func (f *flow) gap() time.Duration {
	return time.Duration(f.g.rng.Exp(float64(f.g.cfg.Mix.PacketGap)))
}

// sendNext transmits the next in-flow packet, or the FIN when the flow
// is done.
func (f *flow) sendNext() {
	if f.remaining <= 0 {
		close := uint8(packet.TCPFin | packet.TCPAck)
		if f.g.rng.Bool(f.g.cfg.Mix.RSTCloseFrac) {
			close = packet.TCPRst | packet.TCPAck
		}
		f.g.inject(f.ing.Router, f.packet(close, 0), nil)
		f.g.FlowsOK++
		return
	}
	f.remaining--
	flags := uint8(packet.TCPAck)
	payload := 0
	if !f.ackOnly {
		payload = f.g.pickSize(f.g.cfg.Mix.DataSizes)
		if payload > 0 && f.g.rng.Bool(0.4) {
			flags |= packet.TCPPsh
		}
	}
	if f.g.rng.Bool(0.001) {
		flags |= packet.TCPUrg
	}
	f.g.inject(f.ing.Router, f.packet(flags, payload), func(fate netsim.Fate) {
		if fate.Delivered {
			f.dataTries = 0
			f.g.net.Sim.Schedule(f.gap(), f.sendNext)
			return
		}
		f.dataTries++
		if f.dataTries > f.g.cfg.Mix.DataRetries {
			f.abort()
			return
		}
		f.remaining++ // retransmission
		f.g.net.Sim.Schedule(time.Second<<(f.dataTries-1), f.sendNext)
	})
}

// abort gives up on the flow; sometimes the disappointed user pings
// the unreachable destination.
func (f *flow) abort() {
	f.g.FlowsAborted++
	if f.g.rng.Bool(f.g.cfg.PingOnAbort) {
		f.g.pingTrain(f.ing, f.src, f.dst, 4)
	}
}

// --- ICMP ------------------------------------------------------------

// sendPing emits a single echo request from a random host.
func (g *Generator) sendPing() {
	ing := g.pickIngress()
	g.echoRequest(ing, g.hostIn(ing.Hosts), g.pickDst(), uint16(g.rng.Uint32()))
}

// pingTrain emits n spaced echo requests towards dst.
func (g *Generator) pingTrain(ing Ingress, src, dst packet.Addr, n int) {
	g.PingTrains++
	ident := uint16(g.rng.Uint32())
	for i := 0; i < n; i++ {
		i := i
		g.net.Sim.Schedule(time.Duration(i)*time.Second, func() {
			g.echoRequest(ing, src, dst, ident)
		})
	}
}

func (g *Generator) echoRequest(ing Ingress, src, dst packet.Addr, ident uint16) {
	g.inject(ing.Router, packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: g.pickTTL(),
			Protocol: packet.ProtoICMP,
			Src:      src, Dst: dst,
			ID: g.nextIPID(src),
		},
		Kind: packet.KindICMP,
		ICMP: packet.ICMPHeader{
			Type: packet.ICMPEchoRequest,
			Rest: uint32(ident)<<16 | 1,
		},
		HasTransport: true,
		PayloadLen:   56,
		PayloadSeed:  g.rng.Uint64(),
	}, nil)
}

// startAnomalousHost emits reserved-type ICMP packets from one host at
// a steady rate for the whole window.
func (g *Generator) startAnomalousHost() {
	ing := g.cfg.Ingresses[0]
	src := g.hostIn(ing.Hosts)
	dst := g.pickDst()
	g.arrivalLoop(2, func() {
		g.inject(ing.Router, packet.Packet{
			IP: packet.IPv4Header{
				Version: 4, IHL: 5, TTL: g.pickTTL(),
				Protocol: packet.ProtoICMP,
				Src:      src, Dst: dst,
				ID: g.nextIPID(src),
			},
			Kind: packet.KindICMP,
			ICMP: packet.ICMPHeader{
				// Reserved type field, as seen from the odd host on
				// Backbones 1 and 2.
				Type: uint8(100 + g.rng.Intn(10)),
			},
			HasTransport: true,
			PayloadLen:   64,
			PayloadSeed:  g.rng.Uint64(),
		}, nil)
	})
}

// --- UDP, multicast, other ---------------------------------------------

// startUDPStream emits a train of UDP packets from one host towards
// one destination — the open-loop traffic that keeps flowing into a
// loop (and whose escapees get overtaken, showing up as reordering).
func (g *Generator) startUDPStream() {
	ing := g.pickIngress()
	src := g.hostIn(ing.Hosts)
	dst := g.pickDst()
	sport := uint16(1024 + g.rng.Intn(64000))
	dport := g.pickDPort()
	ttl := g.pickTTL()
	remaining := 1 + int(g.rng.Exp(g.cfg.Mix.UDPStreamPackets-1))
	var sendNext func()
	sendNext = func() {
		g.inject(ing.Router, packet.Packet{
			IP: packet.IPv4Header{
				Version: 4, IHL: 5, TTL: ttl,
				Protocol: packet.ProtoUDP,
				Src:      src, Dst: dst,
				ID: g.nextIPID(src),
			},
			Kind: packet.KindUDP,
			UDP: packet.UDPHeader{
				SrcPort: sport,
				DstPort: dport,
			},
			HasTransport: true,
			PayloadLen:   g.pickSize(g.cfg.Mix.UDPSizes),
			PayloadSeed:  g.rng.Uint64(),
		}, nil)
		remaining--
		if remaining > 0 {
			g.net.Sim.Schedule(time.Duration(g.rng.Exp(float64(g.cfg.Mix.UDPStreamGap))), sendNext)
		}
	}
	sendNext()
}

func (g *Generator) sendMcast() {
	if len(g.cfg.McastGroups) == 0 {
		return
	}
	ing := g.pickIngress()
	src := g.hostIn(ing.Hosts)
	g.inject(ing.Router, packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: g.pickTTL(),
			Protocol: packet.ProtoUDP,
			Src:      src,
			Dst:      g.cfg.McastGroups[g.rng.Intn(len(g.cfg.McastGroups))],
			ID:       g.nextIPID(src),
		},
		Kind: packet.KindUDP,
		UDP: packet.UDPHeader{
			SrcPort: uint16(1024 + g.rng.Intn(64000)),
			DstPort: 5004,
		},
		HasTransport: true,
		PayloadLen:   g.pickSize(g.cfg.Mix.UDPSizes),
		PayloadSeed:  g.rng.Uint64(),
	}, nil)
}

// sendOther emits a packet of a protocol the classifier does not know
// (GRE), filling the OTHER bucket of Figures 5 and 6.
func (g *Generator) sendOther() {
	ing := g.pickIngress()
	src := g.hostIn(ing.Hosts)
	g.inject(ing.Router, packet.Packet{
		IP: packet.IPv4Header{
			Version: 4, IHL: 5, TTL: g.pickTTL(),
			Protocol: 47, // GRE
			Src:      src, Dst: g.pickDst(),
			ID: g.nextIPID(src),
		},
		Kind:        packet.KindOther,
		PayloadLen:  128,
		PayloadSeed: g.rng.Uint64(),
	}, nil)
}
