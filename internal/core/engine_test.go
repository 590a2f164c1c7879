package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/obs"
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
	if !ok || p.workers != 3 {
		t.Errorf("WithWorkers(3) = %T with %d workers", p, p.workers)
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
		"naive":      func() (Engine, error) { return newNaiveDetector(cfg), nil },
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

// TestRunOverEveryReader: Run borrows each record from the reader
// trace.Open returns — native, pcap, ERF and gzipped native; strict,
// salvage and metered — and every engine New builds finds what
// DetectRecords finds over the same file read whole. A SliceSource
// lends records it owns, so this is where Run meets views of a
// reader's window, which the reader reuses.
func TestRunOverEveryReader(t *testing.T) {
	recs := randomTrace(21, 10*time.Second, 800, 3)
	dir := t.TempDir()
	files := []struct {
		name   string
		format trace.Format
		gzip   bool
		writer func(io.Writer, trace.Meta) (traceWriter, error)
	}{
		{"native", trace.FormatAuto, false, nativeWriter},
		{"pcap", trace.FormatAuto, false, func(w io.Writer, m trace.Meta) (traceWriter, error) { return trace.NewPcapWriter(w, m) }},
		{"erf", trace.FormatERF, false, func(w io.Writer, m trace.Meta) (traceWriter, error) { return trace.NewERFWriter(w, m) }},
		{"native.gz", trace.FormatAuto, true, nativeWriter},
	}
	engines := map[string]Option{
		"workers-1": WithWorkers(1),
		"workers-2": WithWorkers(2),
		"workers-4": WithWorkers(4),
		"streaming": WithStreaming(nil),
	}
	for _, f := range files {
		data := encodeTrace(t, recs, f.writer)
		if f.gzip {
			var buf bytes.Buffer
			gz := gzip.NewWriter(&buf)
			if _, err := gz.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		policies := map[string]trace.OpenOptions{
			"strict":  {Format: f.format},
			"salvage": {Format: f.format, Salvage: true},
			"metered": {Format: f.format, Metrics: obs.NewRegistry()},
		}
		for policy, opts := range policies {
			open := func() trace.Source {
				t.Helper()
				src, _, err := trace.Open(path, opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { trace.CloseSource(src) })
				return src
			}
			all, err := trace.ReadAll(open())
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(recs) {
				t.Fatalf("%s %s: read %d of %d records", f.name, policy, len(all), len(recs))
			}
			want := DetectRecords(all, DefaultConfig())
			if len(want.Loops) == 0 {
				t.Fatalf("%s %s: no loops; test is vacuous", f.name, policy)
			}
			for name, opt := range engines {
				e, err := New(DefaultConfig(), opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(e, open())
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%s %s %s", f.name, policy, name), got, want)
			}
		}
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
