package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"loopscope/internal/trace"
)

// parallelWorkerCounts is the sweep every differential test runs: the
// degenerate single shard, even splits, and a prime count (so prefix
// striping cannot accidentally line up with the shard count).
var parallelWorkerCounts = []int{1, 2, 4, 7}

// requireSameResult fails the test unless got is byte-identical to
// want in every field the sequential detector reports: counters,
// membership, stream content (including every replica's global index,
// TTL and timestamp) and merged loops.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalPackets != want.TotalPackets ||
		got.ParseErrors != want.ParseErrors ||
		got.LoopedPackets != want.LoopedPackets ||
		got.PairsDiscarded != want.PairsDiscarded ||
		got.SubnetInvalidated != want.SubnetInvalidated {
		t.Fatalf("%s: counters differ: got {total %d parse %d looped %d pairs %d invalidated %d}, want {total %d parse %d looped %d pairs %d invalidated %d}",
			label,
			got.TotalPackets, got.ParseErrors, got.LoopedPackets, got.PairsDiscarded, got.SubnetInvalidated,
			want.TotalPackets, want.ParseErrors, want.LoopedPackets, want.PairsDiscarded, want.SubnetInvalidated)
	}
	if !reflect.DeepEqual(got.Membership(), want.Membership()) {
		t.Fatalf("%s: membership differs", label)
	}
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("%s: %d streams, want %d", label, len(got.Streams), len(want.Streams))
	}
	for i := range got.Streams {
		g, w := got.Streams[i], want.Streams[i]
		if g.ID != w.ID || g.Prefix != w.Prefix || g.Summary != w.Summary || g.Ident != w.Ident ||
			!reflect.DeepEqual(g.Replicas, w.Replicas) {
			t.Fatalf("%s: stream %d differs:\n got %v %+v replicas %v\nwant %v %+v replicas %v",
				label, i, g.Prefix, g.Summary, g.Replicas, w.Prefix, w.Summary, w.Replicas)
		}
	}
	if len(got.Loops) != len(want.Loops) {
		t.Fatalf("%s: %d loops, want %d", label, len(got.Loops), len(want.Loops))
	}
	for i := range got.Loops {
		g, w := got.Loops[i], want.Loops[i]
		if g.Prefix != w.Prefix || g.Start != w.Start || g.End != w.End {
			t.Fatalf("%s: loop %d: got %v %v..%v, want %v %v..%v",
				label, i, g.Prefix, g.Start, g.End, w.Prefix, w.Start, w.End)
		}
		if len(g.Streams) != len(w.Streams) {
			t.Fatalf("%s: loop %d has %d streams, want %d", label, i, len(g.Streams), len(w.Streams))
		}
		for j := range g.Streams {
			if g.Streams[j].ID != w.Streams[j].ID {
				t.Fatalf("%s: loop %d stream %d: ID %d, want %d",
					label, i, j, g.Streams[j].ID, w.Streams[j].ID)
			}
		}
	}
}

// TestParallelMatchesSequential is the tentpole's acceptance property:
// across many random traces and every worker count, the sharded
// pipeline must reproduce the sequential Detector's Result exactly —
// same streams with the same global replica indices, same membership,
// same merged loops, same counters.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	for seed := uint64(0); seed < 20; seed++ {
		recs := randomTrace(seed, 6*time.Second, 500, 3)
		want := DetectRecords(recs, cfg)
		for _, w := range parallelWorkerCounts {
			p := NewParallelDetector(cfg, w)
			for _, r := range recs {
				p.Observe(r)
			}
			requireSameResult(t, fmt.Sprintf("seed %d workers %d", seed, w), p.Finish(), want)
		}
	}
}

// TestParallelMatchesSequentialBatched drives the parallel engine
// through ObserveBatch with ragged batch sizes (including ones that
// straddle the internal flush threshold) — the hand-off granularity
// must not leak into the result.
func TestParallelMatchesSequentialBatched(t *testing.T) {
	cfg := DefaultConfig()
	recs := randomTrace(42, 10*time.Second, 900, 5)
	want := DetectRecords(recs, cfg)
	for _, w := range parallelWorkerCounts {
		p := NewParallelDetector(cfg, w)
		for i := 0; i < len(recs); {
			n := 1 + (i*7)%(2*trace.DefaultBatchSize)
			if i+n > len(recs) {
				n = len(recs) - i
			}
			p.ObserveBatch(recs[i : i+n])
			i += n
		}
		requireSameResult(t, fmt.Sprintf("batched workers %d", w), p.Finish(), want)
	}
}

// TestParallelParseErrors mixes undecodable records (truncated below
// the IPv4 header, routed round-robin) into the trace: the parse-error
// count, membership and loop set must still match the sequential run.
func TestParallelParseErrors(t *testing.T) {
	cfg := DefaultConfig()
	recs := randomTrace(7, 6*time.Second, 600, 3)
	for i := 0; i < len(recs); i += 17 {
		recs[i].Data = recs[i].Data[:min(len(recs[i].Data), 1+i%19)]
	}
	want := DetectRecords(recs, cfg)
	if want.ParseErrors == 0 {
		t.Fatal("corruption produced no parse errors; test is vacuous")
	}
	for _, w := range parallelWorkerCounts {
		p := NewParallelDetector(cfg, w)
		for _, r := range recs {
			p.Observe(r)
		}
		requireSameResult(t, fmt.Sprintf("parse-errors workers %d", w), p.Finish(), want)
	}
}

// TestParallelEmptyTrace: Finish with nothing observed must return an
// empty, well-formed Result from every worker count.
func TestParallelEmptyTrace(t *testing.T) {
	for _, w := range parallelWorkerCounts {
		res := NewParallelDetector(DefaultConfig(), w).Finish()
		if res.TotalPackets != 0 || len(res.Streams) != 0 || len(res.Loops) != 0 || len(res.Membership()) != 0 {
			t.Errorf("workers %d: non-empty result from empty trace: %+v", w, res)
		}
	}
}

// TestParallelWorkersClamped: worker counts below one are clamped.
func TestParallelWorkersClamped(t *testing.T) {
	p := NewParallelDetector(DefaultConfig(), 0)
	if p.Workers() != 1 {
		t.Errorf("Workers() = %d, want 1", p.Workers())
	}
	if res := p.Finish(); res.TotalPackets != 0 {
		t.Errorf("unexpected packets: %d", res.TotalPackets)
	}
}

// installPanicHook arranges for the first batch consumed by any shard
// worker to panic with the given value, restoring the clean hook when
// the test ends.
func installPanicHook(t *testing.T, v any) {
	t.Helper()
	shardConsumeHook = func(shard int, recs []trace.Record) { panic(v) }
	t.Cleanup(func() { shardConsumeHook = nil })
}

// TestParallelWorkerPanic: a panic inside a worker shard must not kill
// the process or deadlock the producer; FinishErr surfaces it as an
// error wrapping ErrWorkerPanic with the panic value and a stack.
func TestParallelWorkerPanic(t *testing.T) {
	installPanicHook(t, "injected shard fault")
	recs := randomTrace(3, 6*time.Second, 500, 3)
	for _, w := range parallelWorkerCounts {
		p := NewParallelDetector(DefaultConfig(), w)
		// Feed far more batches than the shard channels hold: if the
		// panicked worker stopped draining, or producers kept sending
		// after cancellation, this would deadlock against the bounded
		// channels rather than return.
		for i := 0; i < 40; i++ {
			p.ObserveBatch(recs)
		}
		res, err := p.FinishErr()
		if res != nil {
			t.Fatalf("workers %d: got a result alongside a worker panic", w)
		}
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("workers %d: error %v does not wrap ErrWorkerPanic", w, err)
		}
		if !strings.Contains(err.Error(), "injected shard fault") {
			t.Errorf("workers %d: error does not carry the panic value: %v", w, err)
		}
		if !strings.Contains(err.Error(), "goroutine") {
			t.Errorf("workers %d: error does not carry a stack trace: %v", w, err)
		}
	}
}

// TestParallelWorkerPanicFinish: the plain Finish re-raises the
// recovered worker panic on the calling goroutine as a typed error
// value the caller can recover.
func TestParallelWorkerPanicFinish(t *testing.T) {
	installPanicHook(t, "finish-path fault")
	p := NewParallelDetector(DefaultConfig(), 2)
	p.ObserveBatch(randomTrace(5, 3*time.Second, 400, 2))
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Finish did not re-raise the worker panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("recovered %v (%T), want an error wrapping ErrWorkerPanic", v, v)
		}
	}()
	p.Finish()
}

// TestParallelWorkerPanicRun: core.Run over a panicking engine returns
// the wrapped error to the caller instead of crashing — the contract
// the CLI relies on.
func TestParallelWorkerPanicRun(t *testing.T) {
	installPanicHook(t, errors.New("run-path fault"))
	e, err := New(DefaultConfig(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewSliceSource(trace.Meta{Link: "mem"}, randomTrace(9, 6*time.Second, 500, 3))
	res, err := Run(e, src)
	if res != nil {
		t.Fatal("Run returned a result alongside a worker panic")
	}
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("Run error %v does not wrap ErrWorkerPanic", err)
	}
}
