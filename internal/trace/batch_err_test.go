package trace

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"loopscope/internal/obs"
)

// faultySource yields n records, then fails with err forever.
type faultySource struct {
	n   int
	pos int
	err error
}

func (s *faultySource) Meta() Meta { return Meta{Link: "faulty", SnapLen: DefaultSnapLen} }

func (s *faultySource) Borrow(rec *Record) error {
	if s.pos >= s.n {
		return s.err
	}
	s.pos++
	*rec = Record{Time: time.Duration(s.pos) * time.Millisecond, WireLen: 40, Data: make([]byte, 40)}
	return nil
}

func TestBatcherMidStreamError(t *testing.T) {
	boom := errors.New("read fault")
	b := NewBatcher(&faultySource{n: 10, err: boom}, 4)

	var got int
	for i := 0; ; i++ {
		recs, err := b.Next()
		got += len(recs)
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("batch %d: error %v, want the source fault", i, err)
			}
			// The partial batch accompanies the error: 10 records in
			// batches of 4 fail on the third batch with 2 records.
			if len(recs) != 2 {
				t.Fatalf("final batch has %d records, want the partial 2", len(recs))
			}
			break
		}
		if len(recs) != 4 {
			t.Fatalf("batch %d: %d records, want full 4", i, len(recs))
		}
	}
	if got != 10 {
		t.Fatalf("delivered %d records before the fault, want all 10", got)
	}
	// The error is sticky.
	if recs, err := b.Next(); !errors.Is(err, boom) || len(recs) != 0 {
		t.Fatalf("Next after fault: %d records, %v; want 0, sticky fault", len(recs), err)
	}
}

func TestBatcherContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := NewSliceSource(Meta{Link: "ctx"}, make([]Record, 100))
	b := NewBatcher(withContext(ctx, src), 8)

	recs, err := b.Next()
	if err != nil || len(recs) != 8 {
		t.Fatalf("first batch: %d records, %v", len(recs), err)
	}
	cancel()
	recs, err = b.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	if len(recs) != 0 {
		t.Fatalf("Next after cancel delivered %d records", len(recs))
	}
	// Sticky after cancellation too.
	if _, err := b.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel: %v", err)
	}
}

// TestBatcherCancelMidBatch cancels while a batch is partially filled:
// the records read before cancellation must be delivered with the
// error, not dropped.
func TestBatcherCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := &funcSource{next: func() (Record, error) {
		n++
		if n == 3 {
			cancel() // takes effect on the ctx check before read 4
		}
		return Record{Time: time.Duration(n), WireLen: 40, Data: make([]byte, 40)}, nil
	}}
	b := NewBatcher(withContext(ctx, src), 8)
	recs, err := b.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next: %v, want context.Canceled", err)
	}
	if len(recs) != 3 {
		t.Fatalf("partial batch has %d records, want 3", len(recs))
	}
}

// ctxSource is a Source whose Borrow reports ctx.Err() once ctx is
// cancelled, before touching src: the shape of a pipeline stage that
// polls for cancellation between reads.
type ctxSource struct {
	ctx context.Context
	src Source
}

func withContext(ctx context.Context, src Source) Source { return &ctxSource{ctx: ctx, src: src} }

func (s *ctxSource) Meta() Meta { return s.src.Meta() }

func (s *ctxSource) Borrow(rec *Record) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	return s.src.Borrow(rec)
}

// funcSource adapts a closure to Source.
type funcSource struct{ next func() (Record, error) }

func (s *funcSource) Meta() Meta { return Meta{Link: "func"} }
func (s *funcSource) Borrow(rec *Record) error {
	r, err := s.next()
	if err == nil {
		*rec = r
	}
	return err
}

func TestMeterSourceMidStreamError(t *testing.T) {
	boom := errors.New("read fault")
	reg := obs.NewRegistry()
	src := MeterSource(&faultySource{n: 3, err: boom}, reg, nil)

	for i := 0; i < 3; i++ {
		if _, err := borrow(src); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := borrow(src); !errors.Is(err, boom) {
		t.Fatalf("Borrow: %v, want the source fault", err)
	}
	// Only successful reads are counted; the failed read is not.
	if got := reg.Counter(obs.MetricTraceRecords).Value(); got != 3 {
		t.Fatalf("records counter = %d, want 3", got)
	}
	if got := reg.Counter(obs.MetricTraceCaptureBytes).Value(); got != 3*40 {
		t.Fatalf("capture bytes counter = %d, want %d", got, 3*40)
	}
}

func TestMeterSourceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	reg := obs.NewRegistry()
	src := MeterSource(withContext(ctx, NewSliceSource(Meta{}, make([]Record, 10))), reg, nil)

	if _, err := borrow(src); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := borrow(src); !errors.Is(err, context.Canceled) {
		t.Fatalf("Borrow after cancel: %v", err)
	}
	if got := reg.Counter(obs.MetricTraceRecords).Value(); got != 1 {
		t.Fatalf("records counter = %d, want 1", got)
	}
}

// TestBatcherPipelineNoGoroutineLeak drives the full batched pipeline
// shape (ctx source -> meter -> batcher) to a mid-stream failure and
// checks that no goroutines are left behind.
func TestBatcherPipelineNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		reg := obs.NewRegistry()
		src := MeterSource(withContext(ctx, NewSliceSource(Meta{}, make([]Record, 1000))), reg, nil)
		b := NewBatcher(src, 16)
		if _, err := b.Next(); err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, err := b.Next(); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// The stages are synchronous: any goroutine growth is a leak.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}
