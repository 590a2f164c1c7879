package traffic

import (
	"time"

	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
)

// LoopSpec is one scripted routing loop for the direct synthesizer.
type LoopSpec struct {
	// Prefix is the destination /24 captured by the loop.
	Prefix routing.Prefix
	// Start and Duration bound the loop's lifetime.
	Start    time.Duration
	Duration time.Duration
	// TTLDelta is the loop size in router hops.
	TTLDelta int
	// Revolution is the time one trip around the loop takes.
	Revolution time.Duration
}

// SynthConfig drives Synthesize.
type SynthConfig struct {
	// Link names the synthetic trace.
	Link string
	// Duration is the trace length.
	Duration time.Duration
	// PacketsPerSecond is the background packet rate.
	PacketsPerSecond float64
	// Mix supplies the protocol/TTL composition (flow structure is
	// not modelled here; packets are drawn i.i.d.).
	Mix Mix
	// DestPrefixes are the destination /24s, Zipf-ranked in order.
	DestPrefixes []routing.Prefix
	// ZipfS is the destination popularity exponent.
	ZipfS float64
	// HopsToLink is the range of router hops a packet takes before
	// reaching the monitored link (decremented from the initial TTL).
	HopsMin, HopsMax int
	// Loops are the scripted loops.
	Loops []LoopSpec
	// SnapLen is the capture snapshot length.
	SnapLen int
}

// recordHeap is a binary min-heap of pending records by timestamp.
// siftUp and siftDown make container/heap's comparisons and swaps in
// container/heap's order, so records with equal timestamps leave as
// they always have; what they spare is boxing every Record into an
// interface on the way in and again on the way out.
type recordHeap []trace.Record

// siftUp restores the heap after h[j] was appended.
func (h recordHeap) siftUp(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Time < h[i].Time) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown restores the heap after h[0] was replaced.
func (h recordHeap) siftDown() {
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].Time < h[j].Time {
			j = r
		}
		if !(h[j].Time < h[i].Time) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *recordHeap) push(r trace.Record) {
	*h = append(*h, r)
	h.siftUp(len(*h) - 1)
}

func (h *recordHeap) pop() trace.Record {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].siftDown()
	*h = old[:n]
	return old[n]
}

// SynthesizeStream is Synthesize without materialising the trace: it
// emits records in time order through emit, holding only the replicas
// scheduled ahead of the background clock (bounded by the longest
// loop). This is how multi-hour, multi-gigabyte traces are produced
// for the streaming detector without holding them in memory.
func SynthesizeStream(cfg SynthConfig, rng *stats.RNG, emit func(trace.Record)) {
	synthesize(cfg, rng, emit)
}

// Synthesize builds a trace directly — no simulator — by drawing
// background packets and, for packets towards a prefix with an active
// loop, emitting the whole replica stream the loop would produce. It
// is the fast path for detector-focused benchmarks and produces traces
// with precisely known ground truth (the returned LoopSpec slice).
//
// Compared to the netsim pipeline it sacrifices queueing/propagation
// realism for three orders of magnitude more records per second.
func Synthesize(cfg SynthConfig, rng *stats.RNG) []trace.Record {
	var out []trace.Record
	synthesize(cfg, rng, func(r trace.Record) { out = append(out, r) })
	return out
}

func synthesize(cfg SynthConfig, rng *stats.RNG, emit func(trace.Record)) {
	if cfg.SnapLen <= 0 {
		cfg.SnapLen = trace.DefaultSnapLen
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.05
	}
	if cfg.HopsMax <= 0 {
		cfg.HopsMin, cfg.HopsMax = 3, 10
	}
	if len(cfg.DestPrefixes) == 0 {
		panic("traffic: Synthesize needs destination prefixes")
	}
	zipf := stats.NewZipf(rng.Fork(), cfg.ZipfS, len(cfg.DestPrefixes))

	// Index loops by prefix for the active check.
	loopsByPrefix := make(map[routing.Prefix][]LoopSpec)
	for _, l := range cfg.Loops {
		loopsByPrefix[l.Prefix] = append(loopsByPrefix[l.Prefix], l)
	}

	ttlW := make([]float64, len(cfg.Mix.InitialTTLs))
	for i, t := range cfg.Mix.InitialTTLs {
		ttlW[i] = t.Weight
	}
	ipids := make(map[packet.Addr]uint16)

	// Replicas are scheduled ahead of the background clock; a heap
	// holds them until the clock catches up, so emission is in time
	// order with memory bounded by the loop horizon.
	var pending recordHeap
	flush := func(upTo time.Duration) {
		for len(pending) > 0 && pending[0].Time <= upTo {
			emit(pending.pop())
		}
	}
	put := func(at time.Duration, pkt *packet.Packet) {
		buf := make([]byte, cfg.SnapLen)
		n, err := pkt.Serialize(buf, cfg.SnapLen)
		if err != nil {
			return
		}
		pending.push(trace.Record{Time: at, WireLen: pkt.WireLen(), Data: buf[:n]})
	}

	meanGap := float64(time.Second) / cfg.PacketsPerSecond
	for at := time.Duration(rng.Exp(meanGap)); at < cfg.Duration; at += time.Duration(rng.Exp(meanGap)) {
		pfx := cfg.DestPrefixes[zipf.Sample()]
		dst := packet.AddrFromUint32(pfx.Addr.Uint32() + uint32(1+rng.Intn(253)))
		src := packet.AddrFrom(10, byte(10+rng.Intn(4)), byte(rng.Intn(256)), byte(1+rng.Intn(253)))
		id := ipids[src] + 1
		ipids[src] = id

		initialTTL := cfg.Mix.InitialTTLs[rng.WeightedChoice(ttlW)].TTL
		hops := cfg.HopsMin + rng.Intn(cfg.HopsMax-cfg.HopsMin+1)
		ttl := int(initialTTL) - hops
		if ttl <= 1 {
			continue
		}

		pkt := packet.Packet{
			IP: packet.IPv4Header{
				Version: 4, IHL: 5,
				TTL:      uint8(ttl),
				Protocol: packet.ProtoTCP,
				Src:      src, Dst: dst, ID: id,
			},
			Kind: packet.KindTCP,
			TCP: packet.TCPHeader{
				SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 80,
				Flags: packet.TCPAck, DataOffset: 5, Window: 65535,
			},
			HasTransport: true,
			PayloadLen:   512,
			PayloadSeed:  rng.Uint64(),
		}
		switch {
		case rng.Bool(cfg.Mix.UDPFrac):
			pkt.Kind = packet.KindUDP
			pkt.IP.Protocol = packet.ProtoUDP
			pkt.UDP = packet.UDPHeader{SrcPort: pkt.TCP.SrcPort, DstPort: 53}
			pkt.PayloadLen = 64
		case rng.Bool(cfg.Mix.ICMPFrac):
			pkt.Kind = packet.KindICMP
			pkt.IP.Protocol = packet.ProtoICMP
			pkt.ICMP = packet.ICMPHeader{Type: packet.ICMPEchoRequest, Rest: uint32(id)<<16 | 1}
			pkt.PayloadLen = 56
		}

		// Active loop for this prefix?
		var active *LoopSpec
		for i := range loopsByPrefix[pfx] {
			l := &loopsByPrefix[pfx][i]
			if at >= l.Start && at < l.Start+l.Duration {
				active = l
				break
			}
		}
		flush(at)
		if active == nil {
			put(at, &pkt)
			continue
		}
		// Replica stream: once per revolution, TTL dropping by delta,
		// until the packet expires or the loop heals (escape).
		end := active.Start + active.Duration
		for t, curTTL := at, ttl; t < end && curTTL > 0; t, curTTL = t+active.Revolution, curTTL-active.TTLDelta {
			p := pkt
			p.IP.TTL = uint8(curTTL)
			put(t, &p)
		}
	}
	flush(1 << 62)
}
