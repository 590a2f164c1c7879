package traffic

import (
	"encoding/binary"
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

// recordHeap is a binary min-heap of pending records by timestamp. It
// orders pointer-free (time, slot) keys, and each slot indexes the
// arena that holds its record, so a sift moves 16 bytes and no pointer
// (no write barrier) where a Record is 48 bytes and carries its Data.
// siftUp and siftDown make container/heap's comparisons and swaps in
// container/heap's order: of two records with equal timestamps, the one
// container/heap would pop first leaves first.
type recordHeap struct {
	keys  []heapKey
	arena []trace.Record
	free  []int32 // arena slots whose record has left
}

type heapKey struct {
	time time.Duration
	slot int32
}

// siftUp restores the heap after h[j] was appended.
func siftUp(h []heapKey, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].time < h[i].time) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// siftDown restores the heap after h[0] was replaced.
func siftDown(h []heapKey) {
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].time < h[j].time {
			j = r
		}
		if !(h[j].time < h[i].time) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *recordHeap) push(r trace.Record) {
	slot := int32(len(h.arena))
	if n := len(h.free); n > 0 {
		slot, h.free = h.free[n-1], h.free[:n-1]
		h.arena[slot] = r
	} else {
		h.arena = append(h.arena, r)
	}
	h.keys = append(h.keys, heapKey{r.Time, slot})
	siftUp(h.keys, len(h.keys)-1)
}

func (h *recordHeap) pop() trace.Record {
	n := len(h.keys) - 1
	h.keys[0], h.keys[n] = h.keys[n], h.keys[0]
	siftDown(h.keys[:n])
	slot := h.keys[n].slot
	h.keys = h.keys[:n]
	h.free = append(h.free, slot)
	return h.arena[slot]
}

// SynthesizeStream is Synthesize without materialising the trace: it
// emits records in time order through emit, holding only the replicas
// scheduled ahead of the background clock (bounded by the longest
// loop). This is how multi-hour, multi-gigabyte traces are produced
// for the streaming detector without holding them in memory. Every
// emitted record's Data is its own (cap == len) and nothing overwrites
// it, so emit may keep records.
func SynthesizeStream(cfg SynthConfig, rng *stats.RNG, emit func(trace.Record)) {
	synthesize(cfg, rng, emit)
}

// synthChunk is how many records Synthesize collects per allocation
// before it copies them all into a result of exact size.
const synthChunk = 4096

// Synthesize builds a trace directly — no simulator — by drawing
// background packets and, for packets towards a prefix with an active
// loop, emitting the whole replica stream the loop would produce. It
// is the fast path for detector-focused benchmarks and produces traces
// with precisely known ground truth: the loops are cfg.Loops, and a
// record is a replica iff its time falls inside the window of a loop on
// its destination's prefix.
//
// Compared to the netsim pipeline it sacrifices queueing/propagation
// realism for three orders of magnitude more records per second.
func Synthesize(cfg SynthConfig, rng *stats.RNG) []trace.Record {
	var full [][]trace.Record
	chunk := make([]trace.Record, 0, synthChunk)
	synthesize(cfg, rng, func(r trace.Record) {
		if len(chunk) == synthChunk {
			full = append(full, chunk)
			chunk = make([]trace.Record, 0, synthChunk)
		}
		chunk = append(chunk, r)
	})
	out := make([]trace.Record, 0, len(full)*synthChunk+len(chunk))
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, chunk...)
}

// synthSlab is how many bytes synthesize allocates at a time to cut
// captures from: some eight hundred 40-byte snaps.
const synthSlab = 32 << 10

// synthesize draws the trace. A record costs its capture bytes, cut
// from a slab that is never reused, and nothing else per packet: IP-ID
// counters are a dense table indexed by the source's three drawn
// octets, loops are looked up by destination rank, a background packet
// with nothing pending skips the heap, and a looping packet is
// serialized once, each replica copying that image with its own TTL and
// IPv4 header checksum (the only bytes the TTL changes: the transport
// checksums leave it out). On a loop-free trace of 40-byte snaps a
// streamed record costs 0.0013 allocations and 43 B
// (TestSynthesizeAllocationBudget).
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

	// Index loops by destination rank for the active check.
	loopsByPrefix := make(map[routing.Prefix][]LoopSpec)
	for _, l := range cfg.Loops {
		loopsByPrefix[l.Prefix] = append(loopsByPrefix[l.Prefix], l)
	}
	loopsByRank := make([][]LoopSpec, len(cfg.DestPrefixes))
	for i, p := range cfg.DestPrefixes {
		loopsByRank[i] = loopsByPrefix[p]
	}

	ttlW := make([]float64, len(cfg.Mix.InitialTTLs))
	for i, t := range cfg.Mix.InitialTTLs {
		ttlW[i] = t.Weight
	}
	// Sources are 10.(10+a).b.c with a < 4, b < 256, 1 ≤ c ≤ 253.
	ipids := make([]uint16, 4<<16)

	var slab []byte
	cut := func(n int) []byte {
		if n > len(slab) {
			slab = make([]byte, max(n, synthSlab))
		}
		b := slab[:n:n]
		slab = slab[n:]
		return b
	}
	// A looping packet's image holds at least the whole IPv4 header,
	// whose checksum each replica recomputes.
	img := make([]byte, max(cfg.SnapLen, packet.IPv4HeaderLen))

	// Replicas are scheduled ahead of the background clock; a heap
	// holds them until the clock catches up, so emission is in time
	// order with memory bounded by the loop horizon.
	var pending recordHeap
	flush := func(upTo time.Duration) {
		for len(pending.keys) > 0 && pending.keys[0].time <= upTo {
			emit(pending.pop())
		}
	}

	meanGap := float64(time.Second) / cfg.PacketsPerSecond
	for at := time.Duration(rng.Exp(meanGap)); at < cfg.Duration; at += time.Duration(rng.Exp(meanGap)) {
		rank := zipf.Sample()
		dst := packet.AddrFromUint32(cfg.DestPrefixes[rank].Addr.Uint32() + uint32(1+rng.Intn(253)))
		a, b, c := rng.Intn(4), rng.Intn(256), 1+rng.Intn(253)
		src := packet.AddrFrom(10, byte(10+a), byte(b), byte(c))
		k := a<<16 | b<<8 | c
		ipids[k]++
		id := ipids[k]

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
		for i := range loopsByRank[rank] {
			l := &loopsByRank[rank][i]
			if at >= l.Start && at < l.Start+l.Duration {
				active = l
				break
			}
		}
		flush(at)
		// Serialize cannot fail here: each buffer holds all it is asked
		// to write.
		wire := pkt.WireLen()
		n := min(cfg.SnapLen, wire)
		if active == nil {
			r := trace.Record{Time: at, WireLen: wire, Data: cut(n)}
			pkt.Serialize(r.Data, cfg.SnapLen)
			if len(pending.keys) == 0 {
				emit(r) // what the heap would pop next, before any push
			} else {
				pending.push(r)
			}
			continue
		}
		// Replica stream: once per revolution, TTL dropping by delta,
		// until the packet expires or the loop heals (escape).
		pkt.Serialize(img, max(n, packet.IPv4HeaderLen))
		end := active.Start + active.Duration
		for t, curTTL := at, ttl; t < end && curTTL > 0; t, curTTL = t+active.Revolution, curTTL-active.TTLDelta {
			img[8], img[10], img[11] = uint8(curTTL), 0, 0
			binary.BigEndian.PutUint16(img[10:12], packet.Checksum(img[:packet.IPv4HeaderLen], 0))
			data := cut(n)
			copy(data, img)
			pending.push(trace.Record{Time: t, WireLen: wire, Data: data})
		}
	}
	flush(1 << 62)
}
