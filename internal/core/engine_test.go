package core

import (
	"errors"
	"testing"
	"time"

	"loopscope/internal/trace"
)

// TestNewRejectsInvalidConfigs: every constructor-visible violation
// must surface as a *ConfigError naming the offending field.
func TestNewRejectsInvalidConfigs(t *testing.T) {
	ok := DefaultConfig()
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"min-replicas", func(c *Config) { c.MinReplicas = 1 }, "MinReplicas"},
		{"member-low", func(c *Config) { c.MemberReplicas = 1 }, "MemberReplicas"},
		{"member-high", func(c *Config) { c.MemberReplicas = c.MinReplicas + 1 }, "MemberReplicas"},
		{"ttl-delta", func(c *Config) { c.MinTTLDelta = 0 }, "MinTTLDelta"},
		{"prefix-negative", func(c *Config) { c.PrefixBits = -1 }, "PrefixBits"},
		{"prefix-wide", func(c *Config) { c.PrefixBits = 33 }, "PrefixBits"},
		{"replica-gap", func(c *Config) { c.MaxReplicaGap = 0 }, "MaxReplicaGap"},
		{"merge-window", func(c *Config) { c.MergeWindow = -time.Second }, "MergeWindow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := ok
			c.mut(&cfg)
			_, err := New(cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != c.field {
				t.Errorf("Field = %q, want %q", ce.Field, c.field)
			}
		})
	}
}

// TestNewRejectsOptionConflicts: incompatible option combinations are
// construction errors, not silent precedence.
func TestNewRejectsOptionConflicts(t *testing.T) {
	cfg := DefaultConfig()
	for name, opts := range map[string][]Option{
		"negative-workers":  {WithWorkers(-2)},
		"workers+streaming": {WithWorkers(4), WithStreaming(nil)},
	} {
		if _, err := New(cfg, opts...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewDispatch: the options select the documented engines — one
// Detector, or a ParallelDetector over several.
func TestNewDispatch(t *testing.T) {
	cfg := DefaultConfig()
	mustNew := func(opts ...Option) Engine {
		t.Helper()
		e, err := New(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if _, ok := mustNew(WithWorkers(1)).(*Detector); !ok {
		t.Error("WithWorkers(1) did not select a single Detector")
	}
	p, ok := mustNew(WithWorkers(3)).(*ParallelDetector)
	if !ok || p.Workers() != 3 {
		t.Errorf("WithWorkers(3) = %T with %d workers", p, p.Workers())
	}
	p.Finish() // release the worker goroutines
	if _, ok := mustNew(WithStreaming(nil)).(*Detector); !ok {
		t.Error("WithStreaming did not select a single Detector")
	}
	if e := mustNew(); e == nil {
		t.Error("default construction failed")
	} else if _, isPar := e.(*ParallelDetector); isPar {
		e.Finish()
	}
}

// TestEngineVariantsAgree: every Engine — those New builds and the
// naive reference — driven through the same Run pipeline, reports the
// same loops on the same trace.
func TestEngineVariantsAgree(t *testing.T) {
	cfg := DefaultConfig()
	recs := randomTrace(11, 8*time.Second, 700, 3)
	want := DetectRecords(recs, cfg)

	built := func(opts ...Option) func() (Engine, error) {
		return func() (Engine, error) { return New(cfg, opts...) }
	}
	variants := map[string]func() (Engine, error){
		"sequential": built(WithWorkers(1)),
		"parallel-4": built(WithWorkers(4)),
		"naive":      func() (Engine, error) { return NewNaiveDetector(cfg), nil },
		"streaming":  built(WithStreaming(nil)),
	}
	for name, build := range variants {
		t.Run(name, func(t *testing.T) {
			e, err := build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(e, trace.NewSliceSource(trace.Meta{Link: "mem"}, recs))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Loops) != len(want.Loops) {
				t.Fatalf("%d loops, want %d", len(res.Loops), len(want.Loops))
			}
			for i := range res.Loops {
				g, w := res.Loops[i], want.Loops[i]
				if g.Prefix != w.Prefix || g.Start != w.Start || g.End != w.End {
					t.Errorf("loop %d: got %v %v..%v, want %v %v..%v",
						i, g.Prefix, g.Start, g.End, w.Prefix, w.Start, w.End)
				}
			}
			if res.TotalPackets != want.TotalPackets || res.LoopedPackets != want.LoopedPackets {
				t.Errorf("counters: got %d/%d, want %d/%d",
					res.TotalPackets, res.LoopedPackets, want.TotalPackets, want.LoopedPackets)
			}
		})
	}
}

// TestStreamingEngineEmitsWhileRunning: the WithStreaming emit hook
// still fires through the Engine interface, and the Finish Result
// agrees with what was emitted.
func TestStreamingEngineEmitsWhileRunning(t *testing.T) {
	cfg := DefaultConfig()
	recs := randomTrace(11, 8*time.Second, 700, 3)
	var emitted []*Loop
	e, err := New(cfg, WithStreaming(func(l *Loop) { emitted = append(emitted, l) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, trace.NewSliceSource(trace.Meta{Link: "mem"}, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(res.Loops) {
		t.Fatalf("emitted %d loops, Finish reported %d", len(emitted), len(res.Loops))
	}
	if len(emitted) == 0 {
		t.Fatal("no loops emitted; test is vacuous")
	}
}

// TestBatcher: the batch stage hands back every record exactly once,
// in order, and surfaces the source error alongside the final batch.
func TestBatcher(t *testing.T) {
	recs := randomTrace(5, 2*time.Second, 300, 1)
	b := trace.NewBatcher(trace.NewSliceSource(trace.Meta{Link: "mem"}, recs), 10)
	var got []trace.Record
	for {
		batch, err := b.Next()
		got = append(got, batch...)
		if err != nil {
			break
		}
		if len(batch) != 10 {
			t.Fatalf("non-final batch of %d records", len(batch))
		}
	}
	if len(got) != len(recs) {
		t.Fatalf("batched %d of %d records", len(got), len(recs))
	}
	for i := range got {
		if got[i].Time != recs[i].Time {
			t.Fatalf("record %d out of order", i)
		}
	}
	if _, err := b.Next(); err == nil {
		t.Error("drained batcher returned nil error")
	}
}
