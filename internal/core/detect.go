package core

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"loopscope/internal/obs/flight"
	"loopscope/internal/packet"
	"loopscope/internal/routing"
	"loopscope/internal/trace"
)

// Detector is the replica-stream state machine: the one implementation
// of the paper's three steps, run incrementally. It emits each routing
// loop as soon as the loop can no longer change — no packet still in
// flight could validate into it or merge with it — and evicts
// per-packet state that no future decision can read.
//
// Step 2 (subnet validation) and step 3 (merging) look backwards at
// every packet towards a prefix, but those look-backs are bounded in
// time:
//
//   - a stream is validated once every packet in its window has a
//     settled membership, which happens as soon as no still-open
//     replica stream towards the same /24 began before the window's
//     end;
//   - a loop is final once no stream that could merge into it (start
//     within MergeWindow of its end) can still appear.
//
// Tracking the earliest still-undecided time per prefix therefore
// gives the whole-trace algorithm exactly (NaiveDetectRecords is that
// whole-trace algorithm, and the two are differentially tested) while
// holding only the undecided tail of the trace.
//
// A record stamped earlier than its predecessor, which the strict
// readers pass through, is taken at its stamp in arrival order: the
// clock moves back with it, so nothing expires, rotates or advances
// until the clock passes where it was; expiry, which stops at the least
// recently observed packet seen within MaxReplicaGap, can leave a packet
// matchable beyond the gap, as a match checks TTLs, never times; and its
// window entry goes after every earlier arrival. The backwards capture
// in cmd/loopdetect's golden set pins this.
//
// A capture that packet.DecodeIPv4 rejects — under 20 bytes, or with an
// IHL that runs past the capture — is counted in ParseErrors and
// otherwise ignored: it is never keyed and enters no prefix window, so
// it neither starts a stream nor refutes one around it
// (TestShortSnapsAreParseErrors in internal/analysis pins this).
//
// The same machine serves every use. NewDetector collects the loops
// and Finish returns them as a canonical *Result; NewStreamDetector,
// which New builds WithStreaming, additionally hands each loop to a
// callback the moment it is final; and finishStats, on which a Session
// ends, closes a run without building any per-record output.
type Detector struct {
	cfg  Config
	emit func(*Loop)
	// loops retains every finalized loop, in emission order, for
	// Finish, unless forget is set: a Session ends on finishStats
	// alone, so a daemon would otherwise keep every loop it ever
	// emitted.
	loops  []*Loop
	forget bool

	// Free lists of prefix states and builders nothing refers to any
	// more, and the slabs validated streams and emitted loops are cut
	// from (take, cut). A free list holds what was once live, so it
	// never outgrows the detector's peak.
	freeStates   []*prefixState
	freeBuilders []*builder
	replicaSlab  []Replica
	streamSlab   []ReplicaStream
	loopSlab     []*ReplicaStream

	// first holds packets seen once (first.go); active indexes the
	// builders of packets seen again by replicaKey.index, and builders
	// whose keys collide there chain through builder.chain.
	first  firstTable
	active map[uint64]*builder
	seed   uint64
	// byPrefix is keyed by the destination address masked to PrefixBits.
	// prefixCache fronts it, direct-mapped by cacheSlot; evict clears the
	// slot of a state it frees.
	byPrefix    map[uint32]*prefixState
	prefixCache [1 << 10]*prefixState
	prefixMask  uint32

	// live threads every builder in order of last activity, head
	// stalest. Merged by record index with first's entries (coldest),
	// it is both the expiry queue (a packet unseen for MaxReplicaGap is
	// dropped from the cold end, amortised O(1) per record) and the
	// governor's coldest-first victim order. Both are touched in Observe
	// order, never map order, so expiry, shedding and the final flush
	// are pure functions of the record sequence.
	live         blist
	builders     int
	shedStreams  int64 // entries and builders evicted at the cap
	shedPackets  int64 // packets refused admission at the cap
	admitRefused int64 // refusals since start, drives sampled admission

	now time.Duration
	// nextAdvance is where the MaxReplicaGap-long slice of the trace
	// clock that advanceAll last ran in ends. Advancing on entering a new
	// slice makes the schedule a function of record times alone, so a
	// detector fed from a restart point advances on the same records as
	// the original.
	nextAdvance time.Duration

	n           int
	parseErrors int
	pairs       int
	subnetInval int
	looped      int
	streams     int
	// peakEntries gauges the bounded-memory claim in tests.
	peakEntries int

	// fr, when non-nil, receives lifecycle events for the flight
	// recorder. Recording never changes detection decisions.
	fr *flight.ShardRecorder

	// spans, when non-nil (a Session's detector), lists the member
	// streams closed since the last restartPoint that may still reach
	// past it; shedAt is one past the last record the governor shed
	// during.
	spans  []span
	shedAt int
}

// builder accumulates one replica stream from the packet's second
// observation (Detector.promote) until it closes.
type builder struct {
	key replicaKey
	// rest copies the captured bytes past keyBytes, which the key only
	// hashes; empty for the paper's 40-byte snapshots.
	rest     []byte
	index    uint64
	chain    *builder // next open builder with the same index
	ps       *prefixState
	replicas []Replica
	// firstEntry and moreEntries locate every observation of this
	// packet — replicas and link-layer duplicates — in ps.entries by
	// sequence number, so flush can settle their membership.
	firstEntry  int
	moreEntries []int
	// lastTTL/lastTime track the most recent observation — replica or
	// duplicate — so a delta-1 chain cannot ratchet itself into a fake
	// delta-2 stream; lastIdx is its record index, its place in the
	// last-activity order.
	lastTTL  uint8
	lastTime time.Duration
	lastIdx  int
	// frOpen marks that a stream-open flight event was recorded (lazy:
	// nothing is recorded until the second replica, so non-looping
	// traffic never touches the recorder) and that stream, the events'
	// stream ID, has been computed.
	frOpen     bool
	stream     uint64
	prev, next *builder // on Detector.live
}

func (b *builder) start() time.Duration { return b.replicas[0].Time }
func (b *builder) end() time.Duration   { return b.replicas[len(b.replicas)-1].Time }

// blist is an intrusive doubly-linked list of builders.
type blist struct{ head, tail *builder }

func (l *blist) pushBack(b *builder) {
	b.prev, b.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
}

func (l *blist) remove(b *builder) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

// pktEntry is the retained per-packet state: arrival time, whether
// the packet turned out to belong to a replica stream, and whether it
// is the first observation of a packet still open.
type pktEntry struct {
	t      time.Duration
	member bool
	open   bool
}

// prefixState is everything retained for one /PrefixBits prefix.
type prefixState struct {
	prefix routing.Prefix
	// entries is the retained tail of the packets seen towards the
	// prefix, in arrival order; entries[i] has sequence number base+i.
	// It is a window of store, the whole array: evict moves its front to
	// the right, add its end, and cap(entries) always reaches the end of
	// store, so add can tell when the window has run out of array.
	entries []pktEntry
	store   []pktEntry
	base    int
	// open counts the entries marked open; none is before cursor.
	open   int
	cursor int
	// pending are flushed candidates (>= MinReplicas) awaiting
	// settlement, in flush order.
	pending []*builder
	// validated are validated streams not yet folded into loops, in
	// canonical stream order.
	validated []*ReplicaStream
	// loop is the loop currently accepting streams; its Streams grow in
	// merged's array, which finalize copies out exactly and keeps.
	loop   *Loop
	merged []*ReplicaStream
}

const never = time.Duration(1<<63 - 1)

// undecided returns the earliest time at which membership towards the
// prefix is still open: the first observation of the earliest-arrived
// packet still open.
func (ps *prefixState) undecided() time.Duration {
	for ps.cursor = max(ps.cursor, ps.base); ps.open > 0 && ps.cursor-ps.base < len(ps.entries); ps.cursor++ {
		if e := ps.entries[ps.cursor-ps.base]; e.open {
			return e.t
		}
	}
	return never
}

// decide clears the open mark of the packet whose first entry is seq.
func (ps *prefixState) decide(seq int) {
	if i := seq - ps.base; i >= 0 && i < len(ps.entries) {
		ps.entries[i].open = false
	}
	ps.open--
}

// seqOf recovers the sequence number a table entry holds modulo 2³²;
// one the window no longer holds comes out past its end.
func (ps *prefixState) seqOf(s uint32) int { return ps.base + int(s-uint32(ps.base)) }

// earliestStream returns the earliest start of a stream — open,
// pending or validated — that has not yet been folded into a loop.
func (ps *prefixState) earliestStream() time.Duration {
	at := ps.undecided()
	for _, b := range ps.pending {
		at = min(at, b.start())
	}
	if len(ps.validated) > 0 {
		at = min(at, ps.validated[0].Start())
	}
	return at
}

// add retains a packet seen at time t and returns its sequence number.
// When the window has reached the end of store, the retained tail
// slides back to the front if it fills no more than half of it, and
// moves to an array of twice its length otherwise: either way at least
// as many adds follow for free as entries were copied, and the evicted
// front is reused where a bare append would have left it behind and
// grown a new array by a quarter, over and over. Sequence numbers are
// positions in the window, so moving it changes none.
func (ps *prefixState) add(t time.Duration) int {
	if len(ps.entries) == cap(ps.entries) {
		if live := len(ps.entries); live > len(ps.store)/2 || ps.store == nil {
			ps.store = make([]pktEntry, max(2*live, minEntryStore))
		}
		ps.entries = ps.store[:copy(ps.store, ps.entries)]
	}
	ps.entries = append(ps.entries, pktEntry{t: t})
	return ps.base + len(ps.entries) - 1
}

// dropFront forgets the first cut retained entries. Re-slicing is
// enough: add reclaims the front of the array when the window reaches
// its end.
func (ps *prefixState) dropFront(cut int) {
	ps.entries = ps.entries[cut:]
	ps.base += cut
}

// minEntryStore is the first array a prefix gets; most prefixes of a
// backbone trace never hold more than a few packets at once.
const minEntryStore = 4

// clean reports whether every retained packet towards the prefix in
// [from, to] belongs to some replica stream (of at least
// MemberReplicas replicas). A loop must capture all traffic to the
// prefix; a non-looping packet in the window refutes the stream.
func (ps *prefixState) clean(from, to time.Duration) bool {
	lo := sort.Search(len(ps.entries), func(i int) bool {
		return ps.entries[i].t >= from
	})
	for _, e := range ps.entries[lo:] {
		if e.t > to {
			break
		}
		if !e.member {
			return false
		}
	}
	return true
}

// NewDetector returns a detector whose loops are collected for Finish.
// It panics on an invalid configuration; use New for an error-returning
// constructor.
func NewDetector(cfg Config) *Detector { return NewStreamDetector(cfg, nil) }

// NewStreamDetector returns a detector that also hands every finalized
// loop to emit (may be nil), in order of finalization: per prefix this
// is start order; across prefixes it follows the trace clock.
func NewStreamDetector(cfg Config, emit func(*Loop)) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Detector{
		cfg:        cfg,
		emit:       emit,
		first:      newFirstTable(defaultGenerations, minSlots, cfg.MaxReplicaGap),
		active:     make(map[uint64]*builder),
		seed:       rand.Uint64(),
		byPrefix:   make(map[uint32]*prefixState),
		prefixMask: ^uint32(0) << (32 - cfg.PrefixBits),
	}
}

// setFlight attaches a flight-recorder shard. Call before the first
// Observe; a nil shard (the default) keeps recording disabled.
func (d *Detector) setFlight(sr *flight.ShardRecorder) { d.fr = sr }

func (d *Detector) state(dst packet.Addr) *prefixState {
	net := dst.Uint32() & d.prefixMask
	ps := d.lookup(net)
	if ps == nil {
		ps = take(&d.freeStates)
		ps.prefix = routing.PrefixOf(dst, d.cfg.PrefixBits)
		d.byPrefix[net] = ps
		d.prefixCache[cacheSlot(net)] = ps
	}
	return ps
}

// lookup returns the state of the prefix net, or nil.
func (d *Detector) lookup(net uint32) *prefixState {
	c := &d.prefixCache[cacheSlot(net)]
	if *c == nil || (*c).prefix.Addr.Uint32() != net {
		*c = d.byPrefix[net]
	}
	return *c
}

func cacheSlot(net uint32) uint32 { return net * 0x9e3779b1 >> 22 }

// take pops a pooled *T, or allocates one when the pool is empty.
func take[T any](pool *[]*T) *T {
	n := len(*pool)
	if n == 0 {
		return new(T)
	}
	x := (*pool)[n-1]
	*pool = (*pool)[:n-1]
	return x
}

// slabLen is how many elements cut allocates at a time.
const slabLen = 512

// cut returns the next n elements of *slab, refilling it first when it
// runs short. A cut is slab[:n:n], written once and never again, so
// appending to it copies rather than run into the next cut: the aliasing
// rule of a trace Record's Data.
func cut[T any](slab *[]T, n int) []T {
	if n > len(*slab) {
		*slab = make([]T, max(n, slabLen))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// Observe processes the next trace record. Records must arrive in
// non-decreasing time order.
func (d *Detector) Observe(rec trace.Record) { d.observeAt(rec, d.n) }

// observeAt is Observe for a record whose position in the whole trace
// is idx. The index is written into the Replica that reports the record
// and otherwise only compared, as any increasing numbering would be, so
// a parallelDetector shard passes the global one and its streams need no
// renumbering afterwards.
func (d *Detector) observeAt(rec trace.Record, idx int) {
	d.n++
	d.now = rec.Time
	// Close stale streams first, so memory tracks the number of
	// concurrent streams, not trace length, and every builder the
	// record can match is within MaxReplicaGap of it.
	d.expire()
	d.first.rotate(d.now)
	if rec.Time >= d.nextAdvance {
		d.advanceAll(false)
		d.nextAdvance = (rec.Time/d.cfg.MaxReplicaGap + 1) * d.cfg.MaxReplicaGap
	}

	// TTL and destination are all a first observation reads of the IP
	// header, and FrameIPv4 fails exactly where DecodeIPv4, and with it
	// packet.Decode, does; the transport half is read when a stream is
	// published (summarize).
	if packet.FrameIPv4(rec.Data) == 0 {
		d.parseErrors++
		return
	}
	key, rest := keyOf(rec.Data)
	h := key.index(d.seed)
	rep := Replica{Time: rec.Time, TTL: rec.Data[8], Index: idx}

	// An open builder knows its prefix, so only a first sighting or a
	// promotion looks the prefix up.
	match := d.active[h]
	for match != nil && !(match.key == key && bytes.Equal(match.rest, rest)) {
		match = match.chain
	}
	if match == nil {
		ps := d.state(packet.Addr(rec.Data[16:20]))
		e := d.first.find(h, &key, rest)
		if e == nil {
			d.addFirst(ps, h, &key, rest, rep)
			return
		}
		match = d.promote(ps, h, &key, rest, e)
	}
	ps := match.ps
	switch delta := int(match.lastTTL) - int(rep.TTL); {
	case delta >= d.cfg.MinTTLDelta:
		match.replicas = append(match.replicas, rep)
		d.touch(match, rep)
		if d.fr != nil {
			d.frExtend(match, rep, delta)
		}
	case delta >= 0:
		// Same bytes, TTL decrement below the loop threshold: a
		// link-layer duplicate of the last observation. It belongs to
		// this packet (so it cannot refute a concurrent loop in step
		// 2) without extending the stream.
		d.touch(match, rep)
		if match.frOpen && d.fr.SampleReplica(len(match.moreEntries)+1-len(match.replicas)) {
			d.fr.Record(flight.Event{Time: rec.Time, Kind: flight.KindDuplicate,
				Prefix: ps.prefix, Stream: match.stream, TTL: rep.TTL, Delta: delta})
		}
	default:
		// TTL went back up: a reappearance of the original packet
		// (e.g. an identical retransmission through a middlebox).
		// Close the old stream and start a new one.
		d.close(match, flight.ReasonTTLRise)
		d.addFirst(ps, h, &key, rest, rep)
	}
}

// addFirst remembers a packet's first observation, the governor
// permitting. A packet refused admission is not remembered and, having
// no chance of ever becoming a member, is not retained in the prefix
// window either: a non-member entry would invalidate every genuine
// stream overlapping it (step 2).
func (d *Detector) addFirst(ps *prefixState, h uint64, key *replicaKey, rest []byte, rep Replica) {
	if !d.admitStream() {
		return
	}
	seq := ps.add(rep.Time)
	ps.entries[len(ps.entries)-1].open = true
	ps.open++
	d.first.insert(h, d.seed, key, rest, rep, seq)
}

// promote replaces a packet's table entry, on its second observation,
// with a builder holding the first; its window entry stays open. The
// builder comes from the free list with the arrays it grew before.
func (d *Detector) promote(ps *prefixState, h uint64, key *replicaKey, rest []byte, e *firstObs) *builder {
	b := take(&d.freeBuilders)
	*b = builder{key: *key, rest: append(b.rest[:0], rest...), index: h, chain: d.active[h], ps: ps,
		replicas:    append(b.replicas[:0], Replica{Time: e.t, TTL: e.ttl(), Index: e.idx()}),
		moreEntries: b.moreEntries[:0],
		firstEntry:  ps.seqOf(e.seq), lastTTL: e.ttl(), lastTime: e.t, lastIdx: e.idx()}
	d.first.drop(e)
	d.active[h] = b
	d.live.pushBack(b)
	d.builders++
	return b
}

// dropFirst forgets a table entry, shed or expired.
func (d *Detector) dropFirst(e *firstObs) {
	ps := d.lookup(e.net() & d.prefixMask)
	ps.decide(ps.seqOf(e.seq))
	d.first.drop(e)
}

// coldest returns whichever of the coldest table entry and b was last
// observed at the lower record index, with the other nil.
func (d *Detector) coldest(b *builder) (*firstObs, *builder) {
	if e := d.first.coldest(); e != nil && (b == nil || e.idx() < b.lastIdx) {
		return e, nil
	}
	return nil, b
}

// touch books a further observation of b's packet: its window entry,
// the last-seen TTL and time, and b's place at the warm end of the
// activity list.
func (d *Detector) touch(b *builder, rep Replica) {
	b.moreEntries = append(b.moreEntries, b.ps.add(rep.Time))
	b.lastTTL, b.lastTime, b.lastIdx = rep.TTL, rep.Time, rep.Index
	if d.live.tail != b {
		d.live.remove(b)
		d.live.pushBack(b)
	}
}

// close flushes an open builder and drops it from every index; unless
// flush queued it, nothing refers to it any more.
func (d *Detector) close(b *builder, why flight.Reason) {
	d.flush(b, why)
	if p := d.active[b.index]; p == b {
		if b.chain == nil {
			delete(d.active, b.index)
		} else {
			d.active[b.index] = b.chain
		}
	} else {
		for p.chain != b {
			p = p.chain
		}
		p.chain = b.chain
	}
	b.chain = nil
	b.ps.decide(b.firstEntry)
	d.live.remove(b)
	d.builders--
	if len(b.replicas) < d.cfg.MinReplicas {
		d.freeBuilders = append(d.freeBuilders, b)
	}
}

// expire drops table entries and closes builders unseen for
// MaxReplicaGap, from the cold end of the last-activity order.
func (d *Detector) expire() {
	for {
		switch e, b := d.coldest(d.live.head); {
		case e != nil && d.now-e.t > d.cfg.MaxReplicaGap:
			d.dropFirst(e)
		case b != nil && d.now-b.lastTime > d.cfg.MaxReplicaGap:
			d.close(b, flight.ReasonReplicaGap)
		default:
			return
		}
	}
}

// frExtend records a sampled replica-extension event, lazily opening
// the stream's flight record on its second replica.
func (d *Detector) frExtend(b *builder, rep Replica, delta int) {
	if !b.frOpen {
		// The stream ID has always been this hash of the masked bytes,
		// and trails and exemplars are compared across versions.
		var buf [2 * keyBytes]byte
		b.frOpen, b.stream = true, fnv64a(b.key.masked(buf[:0], b.rest))
		first := b.replicas[0]
		d.fr.Record(flight.Event{Time: first.Time, Kind: flight.KindStreamOpen,
			Prefix: b.ps.prefix, Stream: b.stream, TTL: first.TTL})
	}
	if n := len(b.replicas); d.fr.SampleReplica(n) {
		d.fr.Record(flight.Event{Time: rep.Time, Kind: flight.KindReplica,
			Prefix: b.ps.prefix, Stream: b.stream, TTL: rep.TTL, Delta: delta, Count: n})
	}
}

// note records a lifecycle event of b's stream if its flight record is
// open.
func (d *Detector) note(b *builder, at time.Duration, kind flight.Kind, why flight.Reason) {
	if b.frOpen {
		d.fr.Record(flight.Event{Time: at, Kind: kind, Reason: why,
			Prefix: b.ps.prefix, Stream: b.stream, Count: len(b.replicas)})
	}
}

// flush settles a closing builder: single observations vanish, pairs
// are counted as link-layer duplicates, larger sets make their packets
// members and, from MinReplicas up, queue as loop candidates.
func (d *Detector) flush(b *builder, why flight.Reason) {
	n := len(b.replicas)
	d.note(b, b.lastTime, flight.KindStreamClose, why)
	if n < d.cfg.MemberReplicas {
		return
	}
	if d.spans != nil {
		d.spans = append(d.spans, span{b.replicas[0].Index, b.lastIdx})
	}
	if n == 2 {
		d.pairs++
	}
	ps := b.ps
	ps.entries[b.firstEntry-ps.base].member = true
	for _, seq := range b.moreEntries {
		ps.entries[seq-ps.base].member = true
	}
	if n < d.cfg.MinReplicas {
		// Two-element sets (or anything below the evidence bar): not
		// loop evidence on their own.
		why := flight.ReasonBelowMinReplicas
		if n == 2 {
			why = flight.ReasonPairDiscarded
		}
		d.note(b, b.start(), flight.KindReject, why)
		return
	}
	d.note(b, b.start(), flight.KindCandidate, flight.ReasonNone)
	ps.pending = append(ps.pending, b)
}

// advanceAll makes progress on validation, folding and emission for
// every prefix with such work, and evicts unreachable entries from all
// of them. Prefixes with work are visited in address order, never map
// order: emission order must be a pure function of the record sequence
// so that a run resumed from a restart point numbers its emissions as
// the original did (Session.RestartPoint). The others can only evict,
// which nothing observes, so their order is free.
func (d *Detector) advanceAll(final bool) {
	var busy []*prefixState
	for _, ps := range d.byPrefix {
		if len(ps.pending) > 0 || len(ps.validated) > 0 || ps.loop != nil {
			busy = append(busy, ps)
		} else {
			d.evict(ps)
		}
	}
	sort.Slice(busy, func(i, j int) bool {
		a, b := busy[i].prefix, busy[j].prefix
		if a.Addr != b.Addr {
			return a.Addr.Uint32() < b.Addr.Uint32()
		}
		return a.Bits < b.Bits
	})
	for _, ps := range busy {
		d.advance(ps, final)
		d.evict(ps)
	}
}

// advance runs steps 2 and 3 for one prefix as far as the settled part
// of the trace allows; final lifts that limit at end of trace.
func (d *Detector) advance(ps *prefixState, final bool) {
	undecided := ps.undecided()

	// Step 2: validate pending streams whose windows are fully settled.
	kept := ps.pending[:0]
	for _, b := range ps.pending {
		settled := undecided > b.end() && d.now-b.end() > d.cfg.MaxReplicaGap
		if !settled && !final {
			kept = append(kept, b)
			continue
		}
		if d.cfg.ValidateSubnet && !ps.clean(b.start(), b.end()) {
			d.subnetInval++
			d.note(b, b.start(), flight.KindReject, flight.ReasonSubnetInvalidated)
			d.freeBuilders = append(d.freeBuilders, b)
			continue
		}
		d.note(b, b.start(), flight.KindValidated, flight.ReasonNone)
		var buf [2 * keyBytes]byte
		masked := b.key.masked(buf[:0], b.rest)
		s := &cut(&d.streamSlab, 1)[0]
		*s = ReplicaStream{ID: d.streams, Prefix: ps.prefix, Replicas: cut(&d.replicaSlab, len(b.replicas)),
			Summary: summarize(masked), Ident: fnv64a(masked)}
		copy(s.Replicas, b.replicas)
		d.freeBuilders = append(d.freeBuilders, b)
		d.streams++
		d.looped += len(b.replicas)
		i := sort.Search(len(ps.validated), func(i int) bool { return streamLess(s, ps.validated[i]) })
		ps.validated = append(ps.validated, nil)
		copy(ps.validated[i+1:], ps.validated[i:])
		ps.validated[i] = s
	}
	ps.pending = kept

	// Step 3: fold validated streams into the open loop, in stream
	// order. A stream may be folded once no undecided or pending stream
	// could precede it.
	for len(ps.validated) > 0 {
		s := ps.validated[0]
		if !final && (undecided <= s.Start() || ps.pendingBy(s.Start())) {
			break
		}
		ps.validated = slices.Delete(ps.validated, 0, 1)
		l := ps.loop
		if l == nil {
			d.openLoop(ps, s, flight.ReasonNone)
			continue
		}
		gap := max(s.Start()-l.End, 0)
		if gap == 0 || (gap < d.cfg.MergeWindow && (!d.cfg.ValidateSubnet || ps.clean(l.End, s.Start()))) {
			// Overlapping, or close in time with no contradicting
			// traffic in the gap (the loop simply had no detectable
			// replicas for a while): same loop.
			l.Streams = append(l.Streams, s)
			l.End = max(l.End, s.End())
			d.fr.Record(flight.Event{Time: s.Start(), Kind: flight.KindMerge,
				Prefix: ps.prefix, Count: len(l.Streams), Gap: gap})
			continue
		}
		why := flight.ReasonDirtyGap
		if gap >= d.cfg.MergeWindow {
			why = flight.ReasonMergeGapWide
		}
		d.finalize(ps)
		d.openLoop(ps, s, why)
	}

	// Emit the open loop once nothing can merge into it any more.
	if l := ps.loop; l != nil {
		deadline := l.End + d.cfg.MergeWindow
		if final || (d.now > deadline && ps.earliestStream() > deadline) {
			d.finalize(ps)
		}
	}
}

// pendingBy reports whether a pending candidate starts at or before t.
func (ps *prefixState) pendingBy(t time.Duration) bool {
	for _, b := range ps.pending {
		if b.start() <= t {
			return true
		}
	}
	return false
}

// openLoop starts the prefix's next loop with stream s; why says what
// closed the previous one, if there was one.
func (d *Detector) openLoop(ps *prefixState, s *ReplicaStream, why flight.Reason) {
	ps.loop = &Loop{Prefix: ps.prefix, Streams: append(ps.merged, s), Start: s.Start(), End: s.End()}
	d.fr.Record(flight.Event{Time: s.Start(), Kind: flight.KindLoopOpen, Reason: why, Prefix: ps.prefix})
}

// finalize emits the prefix's open loop: nothing can change it now.
func (d *Detector) finalize(ps *prefixState) {
	l := ps.loop
	ps.loop, ps.merged = nil, l.Streams
	l.Streams = cut(&d.loopSlab, len(ps.merged))
	copy(l.Streams, ps.merged)
	clear(ps.merged)
	ps.merged = ps.merged[:0]
	d.fr.Record(flight.Event{Time: l.End, Kind: flight.KindLoopFinal,
		Prefix: ps.prefix, Count: len(l.Streams)})
	if !d.forget {
		d.loops = append(d.loops, l)
	}
	if d.emit != nil {
		d.emit(l)
	}
}

// maxPooledStore is the largest entry array (16 KiB) a prefix state
// keeps on the free list; a larger one is left to the collector.
const maxPooledStore = 1024

// evict drops the entries nothing can read any more — those before the
// open loop's end, the oldest undecided packet and the earliest
// unfolded stream — and the whole prefix once it holds nothing, onto
// the free list with its arrays.
func (d *Detector) evict(ps *prefixState) {
	needLow := min(d.now, ps.earliestStream())
	if ps.loop != nil {
		needLow = min(needLow, ps.loop.End)
	}
	cut := sort.Search(len(ps.entries), func(i int) bool {
		return ps.entries[i].t >= needLow
	})
	if ps.open > 0 { // after a backwards step the search can pass an open builder's first entry
		cut = min(cut, ps.cursor-ps.base)
	}
	ps.dropFront(cut)
	d.peakEntries = max(d.peakEntries, len(ps.entries))
	if len(ps.entries) == 0 && len(ps.pending) == 0 &&
		len(ps.validated) == 0 && ps.open == 0 && ps.loop == nil {
		delete(d.byPrefix, ps.prefix.Addr.Uint32())
		if c := &d.prefixCache[cacheSlot(ps.prefix.Addr.Uint32())]; *c == ps {
			*c = nil
		}
		store := ps.store
		if len(store) > maxPooledStore {
			store = nil
		}
		*ps = prefixState{entries: store[:0], store: store, pending: ps.pending,
			validated: ps.validated, merged: ps.merged}
		d.freeStates = append(d.freeStates, ps)
	}
}

// StreamStats summarises a finished run by its counters alone.
type StreamStats struct {
	TotalPackets      int
	LoopedPackets     int
	Streams           int
	ParseErrors       int
	PairsDiscarded    int
	SubnetInvalidated int
	// PeakPrefixEntries is the largest per-prefix retained-entry
	// count observed — the bounded-memory gauge.
	PeakPrefixEntries int
	// ShedStreams and ShedPackets account for what the memory
	// governor gave up under its cap (zero without one).
	ShedStreams int64
	ShedPackets int64
}

// finishStats closes all open streams, emits every outstanding loop
// and returns the run's counters. It allocates nothing per record, so
// it is how a bounded-memory run (a feed, a multi-hour capture) ends;
// the loops have all gone to the emit callback.
func (d *Detector) finishStats() StreamStats {
	for d.live.head != nil {
		d.close(d.live.head, flight.ReasonEndOfTrace)
	}
	for e := d.first.coldest(); e != nil; e = d.first.coldest() {
		d.dropFirst(e)
	}
	d.advanceAll(true)
	return StreamStats{
		TotalPackets:      d.n,
		LoopedPackets:     d.looped,
		Streams:           d.streams,
		ParseErrors:       d.parseErrors,
		PairsDiscarded:    d.pairs,
		SubnetInvalidated: d.subnetInval,
		PeakPrefixEntries: d.peakEntries,
		ShedStreams:       d.shedStreams,
		ShedPackets:       d.shedPackets,
	}
}

// Finish implements Engine: finishStats, then the collected loops as a
// canonical *Result (see canonicalize).
func (d *Detector) Finish() *Result {
	st := d.finishStats()
	res := &Result{
		Loops:             d.loops,
		TotalPackets:      st.TotalPackets,
		LoopedPackets:     st.LoopedPackets,
		ParseErrors:       st.ParseErrors,
		PairsDiscarded:    st.PairsDiscarded,
		SubnetInvalidated: st.SubnetInvalidated,
	}
	res.Streams = canonicalize(res.Loops)
	return res
}

// streamLess is the canonical stream order: first-replica time, then
// first-replica index. The index tie-break makes the order total, so
// every engine numbers the same streams identically.
func streamLess(a, b *ReplicaStream) bool {
	x, y := a.Replicas[0], b.Replicas[0]
	if x.Time != y.Time {
		return x.Time < y.Time
	}
	return x.Index < y.Index
}

// loopLess is the canonical loop order: start, then prefix address.
func loopLess(a, b *Loop) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Prefix.Addr.Uint32() < b.Prefix.Addr.Uint32()
}

// canonicalize puts a run's loops into the order and numbering every
// engine reports: loops sorted in place by loopLess, their streams
// gathered, sorted by streamLess and renumbered from 0.
func canonicalize(loops []*Loop) []*ReplicaStream {
	sort.Slice(loops, func(i, j int) bool { return loopLess(loops[i], loops[j]) })
	var streams []*ReplicaStream
	for _, l := range loops {
		streams = append(streams, l.Streams...)
	}
	sort.Slice(streams, func(i, j int) bool { return streamLess(streams[i], streams[j]) })
	for id, s := range streams {
		s.ID = id
	}
	return streams
}

// DetectRecords runs the full pipeline over an in-memory trace.
func DetectRecords(recs []trace.Record, cfg Config) *Result {
	d := NewDetector(cfg)
	for _, r := range recs {
		d.Observe(r)
	}
	return d.Finish()
}
