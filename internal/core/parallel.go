package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
	"loopscope/internal/trace"
)

// ErrWorkerPanic is the sentinel wrapped into the error a
// ParallelDetector surfaces when one of its worker shards panics. The
// panic is recovered inside the worker, the peer shards are cancelled
// (they drain their queues without further processing), and FinishErr
// reports the first panic with its shard number, value and stack.
var ErrWorkerPanic = errors.New("core: worker shard panicked")

// shardConsumeHook, when non-nil, is called with each batch a shard
// worker is about to process. Tests use it to inject a panicking
// record stream into a live worker; production code leaves it nil (a
// single predictable branch per batch).
var shardConsumeHook func(shard int, recs []trace.Record)

// ParallelDetector is the multi-core detection engine. It fans the
// trace out to N worker shards keyed by the destination /PrefixBits
// prefix, each running its own Detector, so the whole hot path —
// header decode, replica matching, stream building, subnet validation,
// loop merging — runs concurrently.
//
// Why sharding by destination prefix is exact, not approximate:
//
//   - replica-stream building matches records on byte-equal masked
//     snapshots; the mask leaves the destination address intact, so
//     all observations of one looping packet carry the same
//     destination and land in the same shard;
//   - step-2 subnet validation and step-3 merging read only records
//     towards one /PrefixBits prefix, and a prefix is owned by
//     exactly one shard.
//
// Distinct prefixes therefore never interact until the final reduce,
// which only re-sorts and renumbers: each shard is told every record's
// position in the whole trace (observeAt), so the shards' loops go
// straight through the same canonicalize a single Detector's Finish
// uses. The Result is identical to a single
// Detector's regardless of worker count or goroutine scheduling.
// (Config.MaxActiveStreams, when set, caps each shard separately.)
//
// Ingest is a pipeline: the caller's Observe/ObserveBatch calls are
// the decode/batch stage (they read the destination bytes and copy the
// record into its shard's pending batch), records travel to shards in
// batches of DefaultBatchSize over bounded channels (backpressure, not
// unbounded queueing), each shard feeds its own Detector, and spent
// batches come back to be filled again.
type ParallelDetector struct {
	cfg     Config
	workers int

	// pending accumulates the next outgoing batch per shard.
	pending []shardBatch
	shards  []*shardState
	wg      sync.WaitGroup

	n          int // records observed (global indices)
	shortShard int // round-robin shard for undecodable snapshots

	// cancel is closed by the first worker panic; producers then drop
	// batches and the remaining workers drain without processing.
	cancel     chan struct{}
	cancelOnce sync.Once
	panicMu    sync.Mutex
	panicErr   error

	// Optional instrumentation (see Instrument). reg doubles as the
	// "is instrumented" flag guarding the clock reads; the counters
	// are obs no-op sinks when nil.
	reg        *obs.Registry
	backNs     *obs.Counter
	backEvents *obs.Counter
}

// parallelBatchChannelDepth bounds the per-shard channel: with
// DefaultBatchSize-record batches this caps in-flight memory at
// workers × (depth+2) × DefaultBatchSize records.
const parallelBatchChannelDepth = 4

// shardBatch is one hand-off unit: records plus their global indices
// (int: a capture of 2^31 records is ten hours of OC-12, and nothing
// holds it in memory any more to keep that out of reach), and the arena
// their Data is copied into, since Observe's caller may reuse a
// record's bytes once it returns.
type shardBatch struct {
	recs  []trace.Record
	idxs  []int
	arena []byte
}

// shardState is one worker: a channel of batches and the shard's own
// Detector.
type shardState struct {
	ch chan shardBatch
	// free holds the batches the worker is done with, for the producer
	// to fill again. At most parallelBatchChannelDepth+2 batches of a
	// shard exist (queued, pending, being consumed, free), so a worker's
	// return never finds it full.
	free  chan shardBatch
	det   *Detector
	stats StreamStats

	// Per-shard instrumentation (nil no-op sinks when uninstrumented):
	// recs counts records this shard consumed, depth samples the
	// shard's queue occupancy at each hand-off.
	recs  *obs.Counter
	depth *obs.Gauge
}

// NewParallelDetector returns a parallel engine with the given number
// of worker shards (at least 1). Like NewDetector it panics on an
// invalid configuration; use New for an error-returning constructor.
func NewParallelDetector(cfg Config, workers int) *ParallelDetector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if workers < 1 {
		workers = 1
	}
	p := &ParallelDetector{
		cfg:     cfg,
		workers: workers,
		pending: make([]shardBatch, workers),
		shards:  make([]*shardState, workers),
		cancel:  make(chan struct{}),
	}
	for i := range p.shards {
		s := &shardState{
			ch:   make(chan shardBatch, parallelBatchChannelDepth),
			free: make(chan shardBatch, parallelBatchChannelDepth+2),
			det:  NewDetector(cfg),
		}
		p.shards[i] = s
		p.wg.Add(1)
		go p.worker(i, s)
	}
	return p
}

// worker is one shard's consume loop. A panic anywhere in the shard's
// processing (detector bug, malformed state, injected fault) must not
// kill the process or strand the producer mid-send: the panic is
// recovered, recorded as the detector's error, the peer shards are
// cancelled, and the channel is drained so Observe never blocks on a
// dead consumer.
func (p *ParallelDetector) worker(i int, s *shardState) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.recordPanic(i, r)
			// Unblock any in-flight producer sends, then keep draining
			// until Finish closes the channel.
			for range s.ch {
			}
		}
	}()
	for b := range s.ch {
		select {
		case <-p.cancel:
			continue // a peer panicked: drain without processing
		default:
		}
		if hook := shardConsumeHook; hook != nil {
			hook(i, b.recs)
		}
		s.recs.Add(int64(len(b.recs)))
		for i, r := range b.recs {
			s.det.observeAt(r, b.idxs[i])
		}
		select {
		case s.free <- shardBatch{b.recs[:0], b.idxs[:0], b.arena[:0]}:
		default:
		}
	}
	select {
	case <-p.cancel:
		// Cancelled: the result would be discarded anyway, and the
		// shard's state may be mid-update.
	default:
		s.stats = s.det.FinishStats()
	}
}

// recordPanic stores the first worker panic (with stack) and cancels
// the peers.
func (p *ParallelDetector) recordPanic(shard int, v any) {
	p.panicMu.Lock()
	if p.panicErr == nil {
		p.panicErr = fmt.Errorf("%w: shard %d: %v\n%s", ErrWorkerPanic, shard, v, debug.Stack())
	}
	p.panicMu.Unlock()
	p.cancelOnce.Do(func() { close(p.cancel) })
}

// canceled reports whether a worker panic has cancelled the pipeline.
func (p *ParallelDetector) canceled() bool {
	select {
	case <-p.cancel:
		return true
	default:
		return false
	}
}

// Instrument wires the detector into a metrics registry: per-shard
// record counters and queue-depth gauges (shard balance), and the
// backpressure counters (time producers spend blocked on a full shard
// queue — the signal that detection, not ingest, is the bottleneck).
// Call it before the first Observe; core.New does so when built
// WithMetrics. Nil registry: no-op.
func (p *ParallelDetector) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	p.reg = r
	p.backNs = r.Counter(obs.MetricBackpressureNs)
	p.backEvents = r.Counter(obs.MetricBackpressureEvents)
	r.Gauge(obs.MetricEngineWorkers).Set(int64(p.workers))
	for i, s := range p.shards {
		s.recs = r.Counter(obs.ShardMetric(obs.MetricShardRecords, i))
		s.depth = r.Gauge(obs.ShardMetric(obs.MetricShardQueueDepth, i))
	}
}

// SetFlightRecorder attaches a flight recorder, giving each worker
// shard its own recorder shard so the hot paths never share a lock.
// Call it before the first Observe (core.New does so when built
// WithFlight); a nil recorder is the disabled default.
func (p *ParallelDetector) SetFlightRecorder(r *flight.Recorder) {
	if r == nil {
		return
	}
	for i, s := range p.shards {
		s.det.SetFlight(r.Shard(i))
	}
}

// shardOf routes a record by the masked destination address. The
// snapshot's destination lives at bytes 16..19 of the IPv4 header
// (fixed offset, independent of IHL), which is exactly the address
// packet.Decode reports — so a record that decodes lands in the shard
// that owns its prefix. Records too short to carry a destination
// cannot decode anyway (the shard's Detector counts the parse error);
// they are spread round-robin so a corrupt region cannot overload one
// shard.
func (p *ParallelDetector) shardOf(data []byte) int {
	if len(data) < 20 {
		p.shortShard++
		return p.shortShard % p.workers
	}
	dst := binary.BigEndian.Uint32(data[16:20])
	bits := p.cfg.PrefixBits
	var mask uint32
	if bits > 0 {
		mask = ^uint32(0) << (32 - bits)
	}
	// Fibonacci multiplicative mix: consecutive /24s must not stripe
	// into the same shard.
	h := (dst & mask) * 0x9e3779b1
	return int((uint64(h) * uint64(p.workers)) >> 32)
}

// Observe routes the next record to its shard, batching hand-offs.
// Records must arrive in non-decreasing time order. The record's Data
// is copied into the batch, not kept.
func (p *ParallelDetector) Observe(rec trace.Record) {
	s := p.shardOf(rec.Data)
	b := &p.pending[s]
	if b.recs == nil {
		*b = p.shards[s].spent()
	}
	// The arena grows to what a batch of this traffic needs and is
	// recycled at that size. Growing leaves the batch's earlier records
	// in the old array, whose bytes nothing writes again.
	at := len(b.arena)
	b.arena = append(b.arena, rec.Data...)
	rec.Data = b.arena[at:len(b.arena):len(b.arena)]
	b.recs = append(b.recs, rec)
	b.idxs = append(b.idxs, p.n)
	p.n++
	if len(b.recs) >= trace.DefaultBatchSize {
		p.flushShard(s)
	}
}

// spent returns a batch the worker is done with, or a new one.
func (s *shardState) spent() shardBatch {
	select {
	case b := <-s.free:
		return b
	default:
		return shardBatch{
			recs: make([]trace.Record, 0, trace.DefaultBatchSize),
			idxs: make([]int, 0, trace.DefaultBatchSize),
		}
	}
}

// ObserveBatch routes a whole slice of records (BatchObserver).
func (p *ParallelDetector) ObserveBatch(recs []trace.Record) {
	for _, r := range recs {
		p.Observe(r)
	}
}

// flushShard sends the pending batch to the shard's worker. The send
// blocks when the shard is parallelBatchChannelDepth batches behind —
// the pipeline's backpressure. After a worker panic the batch is
// dropped instead: the run is already failed and the workers are only
// draining.
func (p *ParallelDetector) flushShard(s int) {
	b := p.pending[s]
	if len(b.recs) == 0 {
		return
	}
	p.pending[s] = shardBatch{}
	if p.canceled() {
		return
	}
	st := p.shards[s]
	if p.reg == nil {
		st.ch <- b
		return
	}
	// Instrumented: measure time blocked on a full queue (the
	// backpressure signal) and sample the queue depth after the send.
	select {
	case st.ch <- b:
	default:
		t := time.Now()
		st.ch <- b
		p.backNs.Add(time.Since(t).Nanoseconds())
		p.backEvents.Inc()
	}
	st.depth.Set(int64(len(st.ch)))
}

// Finish drains the pipeline and reduces the per-shard results into
// one Result identical to a single Detector's. If a worker
// shard panicked during the run, Finish re-raises the recovered panic
// on the calling goroutine as a wrapped *error* value (so the caller
// can recover a typed error instead of the process dying on an
// unreachable goroutine); error-aware callers should prefer
// FinishErr, which core.Run and the tools use.
func (p *ParallelDetector) Finish() *Result {
	res, err := p.FinishErr()
	if err != nil {
		panic(err)
	}
	return res
}

// FinishErr drains the pipeline and reduces the per-shard results,
// returning an error wrapping ErrWorkerPanic if any worker shard
// panicked (the Result is nil in that case: with a shard lost the
// reduce would be silently incomplete).
func (p *ParallelDetector) FinishErr() (*Result, error) {
	for s := range p.shards {
		p.flushShard(s)
		close(p.shards[s].ch)
	}
	p.wg.Wait()
	if p.panicErr != nil {
		return nil, p.panicErr
	}
	sp := p.reg.StartSpan("reduce")
	defer sp.End()

	// Order and number the shards' loops as one run.
	res := &Result{TotalPackets: p.n}
	for _, s := range p.shards {
		res.ParseErrors += s.stats.ParseErrors
		res.LoopedPackets += s.stats.LoopedPackets
		res.PairsDiscarded += s.stats.PairsDiscarded
		res.SubnetInvalidated += s.stats.SubnetInvalidated
		res.Loops = append(res.Loops, s.det.loops...)
	}
	res.Streams = canonicalize(res.Loops)
	return res, nil
}

// Workers returns the number of worker shards.
func (p *ParallelDetector) Workers() int { return p.workers }
