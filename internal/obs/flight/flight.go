// Package flight is the detection pipeline's flight recorder: a
// low-overhead, bounded ring of lifecycle events — stream opened,
// replica appended, candidate rejected (with a reason), streams
// merged, loop finalized — that the detectors feed and operators read
// back as a per-loop decision trail.
//
// The recorder answers "why is this loop here / why is that loop
// missing" without a re-run: when a loop is emitted, Seal collects the
// events around it into a Trail keyed by the loop's deterministic ID
// (the same ID the serve journal uses), retrievable via the daemon's
// /api/trace/{id} endpoint, the /statusz page, or loopdetect -explain.
//
// Cost model: ordinary non-looping traffic generates no events at all
// — a stream is only recorded once its second replica arrives, so the
// hot path pays one nil-check per packet plus, for actual loop
// traffic, a sampled ring append (per-shard mutex, no allocation
// beyond the ring itself). Rings are fixed-size and overwrite oldest;
// sealed trails live in a bounded FIFO. A nil *Recorder and a nil
// *ShardRecorder are valid no-op sinks, mirroring internal/obs.
package flight

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loopscope/internal/routing"
)

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// KindStreamOpen: a builder received its second replica and became
	// a replica stream in the making. Time/TTL are the first replica's.
	KindStreamOpen Kind = iota + 1
	// KindReplica: a replica extended the stream (sampled past the
	// head; see Options).
	KindReplica
	// KindDuplicate: a link-layer duplicate was absorbed (same bytes,
	// TTL decrement below MinTTLDelta) without extending the stream.
	KindDuplicate
	// KindStreamClose: the builder was retired (gap, TTL rise, or end
	// of trace — see Reason) with Count replicas.
	KindStreamClose
	// KindCandidate: the closed stream met MinReplicas and was queued
	// for step-2 validation.
	KindCandidate
	// KindReject: the candidate was discarded; Reason says which gate
	// failed.
	KindReject
	// KindValidated: the candidate passed step-2 subnet validation.
	KindValidated
	// KindLoopOpen: a validated stream opened a new loop. When the
	// previous loop on the prefix was closed to make room, Reason says
	// why the merge was refused.
	KindLoopOpen
	// KindMerge: a validated stream was folded into the open loop
	// (Gap is the inter-stream gap; zero for overlap).
	KindMerge
	// KindLoopFinal: the loop was finalized and emitted with Count
	// streams.
	KindLoopFinal
)

var kindNames = map[Kind]string{
	KindStreamOpen:  "stream-open",
	KindReplica:     "replica",
	KindDuplicate:   "duplicate",
	KindStreamClose: "stream-close",
	KindCandidate:   "candidate",
	KindReject:      "reject",
	KindValidated:   "validated",
	KindLoopOpen:    "loop-open",
	KindMerge:       "merge",
	KindLoopFinal:   "loop-final",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// UnmarshalJSON parses a wire name back into the kind, so trails read
// from /api/trace or the trail journal round-trip.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("flight: unknown event kind %q", s)
}

// Reason qualifies closes, rejects and merge refusals.
type Reason uint8

const (
	ReasonNone Reason = iota
	// ReasonReplicaGap: no replica arrived within MaxReplicaGap.
	ReasonReplicaGap
	// ReasonTTLRise: the TTL went back up — a reappearance of the
	// original packet, not a loop revolution.
	ReasonTTLRise
	// ReasonEndOfTrace: the trace (or drain) ended with the stream
	// still open.
	ReasonEndOfTrace
	// ReasonPairDiscarded: exactly two replicas — a link-layer
	// duplicate, below the paper's evidence bar.
	ReasonPairDiscarded
	// ReasonBelowMinReplicas: fewer than MinReplicas replicas.
	ReasonBelowMinReplicas
	// ReasonSubnetInvalidated: a same-prefix packet inside the stream's
	// window did not belong to any replica stream (step-2 failure).
	ReasonSubnetInvalidated
	// ReasonMergeGapWide: the gap to the open loop reached MergeWindow.
	ReasonMergeGapWide
	// ReasonDirtyGap: the gap was short enough but carried non-looped
	// same-prefix traffic.
	ReasonDirtyGap
	// ReasonShed: the memory governor evicted the stream to stay under
	// its live-builder cap.
	ReasonShed
)

var reasonNames = map[Reason]string{
	ReasonNone:              "",
	ReasonReplicaGap:        "replica-gap",
	ReasonTTLRise:           "ttl-rise",
	ReasonEndOfTrace:        "end-of-trace",
	ReasonPairDiscarded:     "pair-discarded",
	ReasonBelowMinReplicas:  "below-min-replicas",
	ReasonSubnetInvalidated: "subnet-invalidated",
	ReasonMergeGapWide:      "merge-gap-wide",
	ReasonDirtyGap:          "dirty-gap",
	ReasonShed:              "shed",
}

// String returns the stable wire name of the reason ("" for none).
func (r Reason) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// MarshalJSON renders the reason as its wire name.
func (r Reason) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", r.String())), nil
}

// UnmarshalJSON parses a wire name back into the reason.
func (r *Reason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for reason, name := range reasonNames {
		if name == s {
			*r = reason
			return nil
		}
	}
	return fmt.Errorf("flight: unknown reason %q", s)
}

// Event is one recorded lifecycle step. Times are on the trace clock
// (offset from capture start); Stream is the builder's masked-bytes
// hash, stable for the stream's lifetime and shared by all its events.
type Event struct {
	Seq    uint64        `json:"seq"`
	Time   time.Duration `json:"timeNs"`
	Kind   Kind          `json:"kind"`
	Reason Reason        `json:"reason,omitempty"`
	// Prefix keys the event to its /PrefixBits destination; Seal
	// matches on it. The trail carries it once, so events omit it on
	// the wire.
	Prefix routing.Prefix `json:"-"`
	Stream uint64         `json:"stream,omitempty"`
	TTL    uint8          `json:"ttl,omitempty"`
	Delta  int            `json:"delta,omitempty"`
	Count  int            `json:"count,omitempty"`
	Gap    time.Duration  `json:"gapNs,omitempty"`
}

// Options configures a Recorder. The zero value selects the defaults.
type Options struct {
	// PerShardEvents is each shard ring's capacity (<= 0: 8192).
	PerShardEvents int
	// SampleHead is how many replica/duplicate events per stream are
	// recorded verbatim before sampling kicks in (<= 0: 8).
	SampleHead int
	// SampleEvery records every Nth replica/duplicate past SampleHead
	// (<= 0: 16; 1 disables sampling).
	SampleEvery int
	// TrailCap bounds the sealed-trail store (<= 0: 256); oldest
	// trails are evicted FIFO.
	TrailCap int
}

func (o Options) withDefaults() Options {
	if o.PerShardEvents <= 0 {
		o.PerShardEvents = 8192
	}
	if o.SampleHead <= 0 {
		o.SampleHead = 8
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 16
	}
	if o.TrailCap <= 0 {
		o.TrailCap = 256
	}
	return o
}

// Recorder is the flight recorder: per-shard event rings plus the
// bounded store of sealed trails. All methods are nil-safe.
type Recorder struct {
	opts Options
	seq  atomic.Uint64

	events  atomic.Int64
	sealedN atomic.Int64
	evicted atomic.Int64

	mu     sync.Mutex
	shards []*ShardRecorder
	trails map[string]*Trail
	order  []string
}

// New returns a Recorder with the given options.
func New(opts Options) *Recorder {
	return &Recorder{
		opts:   opts.withDefaults(),
		trails: make(map[string]*Trail),
	}
}

// Shard returns the shard-local recording handle for shard i, creating
// it on first use. Detector shards each hold their own handle so hot
// paths never share a mutex; Recorder.Seal scans all of them,
// ShardRecorder.Seal its own. Nil-safe: a nil Recorder returns a nil
// (no-op) handle.
func (r *Recorder) Shard(i int) *ShardRecorder {
	if r == nil || i < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.shards) <= i {
		r.shards = append(r.shards, &ShardRecorder{
			r:   r,
			buf: make([]Event, 0, r.opts.PerShardEvents),
		})
	}
	return r.shards[i]
}

// ShardRecorder is one shard's bounded event ring. Record and
// SampleReplica are safe on a nil receiver (no-ops), which is how the
// uninstrumented path stays free.
type ShardRecorder struct {
	r *Recorder

	mu      sync.Mutex
	buf     []Event
	next    int
	wrapped bool
}

// Record appends one event to the shard's ring, stamping its sequence
// number. Oldest events are overwritten when the ring is full.
func (s *ShardRecorder) Record(ev Event) {
	if s == nil {
		return
	}
	ev.Seq = s.r.seq.Add(1)
	s.r.events.Add(1)
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next] = ev
		s.next = (s.next + 1) % len(s.buf)
		s.wrapped = true
	}
	s.mu.Unlock()
}

// SampleReplica reports whether the n-th replica (or duplicate) of a
// stream should be recorded: the first SampleHead always, then every
// SampleEvery-th. Nil-safe: false on a nil handle.
func (s *ShardRecorder) SampleReplica(n int) bool {
	if s == nil {
		return false
	}
	o := s.r.opts
	return n <= o.SampleHead || n%o.SampleEvery == 0
}

// collect appends the shard's events matching (prefix, window) to out,
// reporting whether the ring may have already overwritten events from
// inside the window. It scans every slot, reading each in place: only
// a match is copied, so a seal costs the ring's size in comparisons,
// not in event copies.
func (s *ShardRecorder) collect(prefix routing.Prefix, from, to time.Duration, out []Event) ([]Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lossy := false
	if s.wrapped && len(s.buf) > 0 && s.buf[s.next].Time > from {
		lossy = true
	}
	for i := range s.buf {
		if ev := &s.buf[i]; ev.Prefix == prefix && ev.Time >= from && ev.Time <= to {
			out = append(out, *ev)
		}
	}
	return out, lossy
}

// Trail is one loop's sealed decision trail: every recorded event
// towards the loop's prefix inside [start-margin, end], in decision
// (sequence) order.
type Trail struct {
	ID      string `json:"id"`
	Prefix  string `json:"prefix"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	// Truncated marks a trail whose window reaches past what the event
	// rings still held at seal time: the decisions are real but the
	// head of the story may be missing.
	Truncated bool    `json:"truncated,omitempty"`
	Events    []Event `json:"events"`
}

// Seal collects the events around one finalized loop into a Trail
// stored under id (replacing any previous trail with the same id — a
// resumed run re-seals replayed loops). margin widens the window
// backwards from start so context (rejected candidates, prior closes)
// is kept; callers pass MergeWindow plus a couple of replica gaps.
// Seal scans every shard, for detectors whose shards split prefixes;
// ShardRecorder.Seal scans one. Nil-safe: a nil Recorder returns nil.
func (r *Recorder) Seal(id string, prefix routing.Prefix, start, end, margin time.Duration) *Trail {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	shards := r.shards
	r.mu.Unlock()
	return r.seal(shards, id, prefix, start, end, margin)
}

// Seal is Recorder.Seal over this shard's ring alone, for a shard that
// holds one event source: a daemon source's trail must not take in
// another source's events on the same prefix and times. Nil-safe.
func (s *ShardRecorder) Seal(id string, prefix routing.Prefix, start, end, margin time.Duration) *Trail {
	if s == nil {
		return nil
	}
	return s.r.seal([]*ShardRecorder{s}, id, prefix, start, end, margin)
}

// seal collects the trail from shards and stores it.
func (r *Recorder) seal(shards []*ShardRecorder, id string, prefix routing.Prefix, start, end, margin time.Duration) *Trail {
	from := start - margin
	if margin < 0 || from > start { // negative margin or underflow
		from = start
	}
	t := &Trail{
		ID:      id,
		Prefix:  prefix.String(),
		StartNs: int64(start),
		EndNs:   int64(end),
	}
	for _, s := range shards {
		var lossy bool
		t.Events, lossy = s.collect(prefix, from, end, t.Events)
		t.Truncated = t.Truncated || lossy
	}
	sortEvents(t.Events)

	r.mu.Lock()
	if _, exists := r.trails[id]; !exists {
		r.order = append(r.order, id)
		for len(r.order) > r.opts.TrailCap {
			evict := r.order[0]
			r.order = r.order[1:]
			delete(r.trails, evict)
			r.evicted.Add(1)
		}
	}
	r.trails[id] = t
	r.mu.Unlock()
	r.sealedN.Add(1)
	return t
}

// sortEvents orders a trail by sequence number (insertion sort: trails
// are short and events from one shard arrive already ordered).
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j-1].Seq > evs[j].Seq; j-- {
			evs[j-1], evs[j] = evs[j], evs[j-1]
		}
	}
}

// Trail returns the sealed trail for id, or nil. Nil-safe.
func (r *Recorder) Trail(id string) *Trail {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trails[id]
}

// TrailIDs returns the sealed trail IDs, newest first. Nil-safe.
func (r *Recorder) TrailIDs() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		out = append(out, r.order[i])
	}
	return out
}

// Stats is a point-in-time summary of the recorder, for /statusz.
type Stats struct {
	// Events is the total number of events recorded (including ones
	// since overwritten in their ring).
	Events int64 `json:"events"`
	// Sealed counts Seal calls; Trails is how many trails are
	// currently retained, Evicted how many the FIFO dropped.
	Sealed  int64 `json:"sealed"`
	Trails  int   `json:"trails"`
	Evicted int64 `json:"evicted"`
	Shards  int   `json:"shards"`
}

// Stats returns the recorder's counters. Nil-safe: zero on nil.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	trails, shards := len(r.trails), len(r.shards)
	r.mu.Unlock()
	return Stats{
		Events:  r.events.Load(),
		Sealed:  r.sealedN.Load(),
		Trails:  trails,
		Evicted: r.evicted.Load(),
		Shards:  shards,
	}
}

// LoopID hashes a loop's stable identity — source name, prefix string,
// start on the trace clock — to the compact hex token the serve
// journal, the HTTP trace API and loopdetect -explain all key on. The
// same loop gets the same ID whether it is emitted live, after a
// checkpoint resume, or by an offline re-run (offline runs pass an
// empty source).
func LoopID(source, prefix string, startNs int64) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff
		h *= prime64
	}
	mix(source)
	mix(prefix)
	mix(fmt.Sprintf("%d", startNs))
	return fmt.Sprintf("%016x", h)
}
