package trace_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/chaos"
	"loopscope/internal/trace"
)

// tailSource reads a TailReader as a Source, under ctx.
type tailSource struct {
	*trace.TailReader
	ctx context.Context
}

func (s tailSource) Borrow(rec *trace.Record) error { return s.TailReader.Borrow(s.ctx, rec) }

// TestBorrowErrorLeavesRecord pins Source.Borrow's error contract for
// every source kind: a failing Borrow, at the end of the trace or on a
// malformed or truncated record, leaves the caller's record exactly as
// it was, so a consumer that keeps one Record across its loop still
// holds the last good one.
func TestBorrowErrorLeavesRecord(t *testing.T) {
	const n = 6
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Time: time.Duration(i+1) * time.Millisecond, WireLen: 1500, Data: make([]byte, 40)}
		recs[i].Data[0] = 0x45
	}
	encode := func(f trace.Format) ([]byte, []int64) { return trace.EncodeTrace(t, f, recs) }
	// cut ends the trace five bytes into record i.
	cut := func(f trace.Format, i int) []byte {
		data, offs := encode(f)
		return data[:offs[i]+5]
	}
	// damage breaks a hard limit of each record idx names: a native
	// caplen over the snaplen, a pcap caplen over 1 MiB, an ERF record
	// type other than HDLC.
	damage := func(f trace.Format, idx ...int) []byte {
		data, offs := encode(f)
		data = bytes.Clone(data)
		for _, i := range idx {
			at := offs[i]
			switch f {
			case trace.FormatNative:
				copy(data[at+10:], []byte{0xff, 0xff})
			case trace.FormatPcap:
				copy(data[at+8:], []byte{0xff, 0xff, 0xff, 0xff})
			case trace.FormatERF:
				data[at+8] = 0
			}
		}
		return data
	}
	strict := func(data []byte, f trace.Format) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			src, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{Format: f})
			if err != nil {
				return nil, err
			}
			return trace.Bare(src), nil
		}
	}
	salvage := func(data []byte, f trace.Format, budget int) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			src, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{Format: f, Salvage: true, MaxDecodeErrors: budget})
			if err != nil {
				return nil, err
			}
			return trace.Bare(src), nil
		}
	}
	file := func(data []byte) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			src, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{})
			return src, err
		}
	}
	tail := func(data []byte, ctx context.Context) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			path := filepath.Join(t.TempDir(), "t.lspt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				return nil, err
			}
			tr, err := trace.OpenTail(path, trace.TailOptions{Poll: time.Millisecond, IdleTimeout: 20 * time.Millisecond})
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { tr.Close() })
			return tailSource{tr, ctx}, nil
		}
	}
	faulty := func(open func() (trace.Source, error)) func() (trace.Source, error) {
		return func() (trace.Source, error) {
			src, err := open()
			if err != nil {
				return nil, err
			}
			return chaos.NewSource(src, chaos.RecordFaults{Seed: 3, Dup: 0.3, Reorder: 0.3}), nil
		}
	}
	native, _ := encode(trace.FormatNative)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	isEOF := func(err error) bool { return err == io.EOF }
	short := func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }
	idle := func(err error) bool { return errors.Is(err, trace.ErrTailIdle) }
	malformed := func(err error) bool { return err != nil && bytes.Contains([]byte(err.Error()), []byte("malformed")) }

	type borrowCase struct {
		name  string
		open  func() (trace.Source, error)
		want  func(error) bool
		reads int // records delivered before the error; -1: any
	}
	cases := []borrowCase{
		{"slice/eof", func() (trace.Source, error) { return trace.NewSliceSource(trace.Meta{}, recs), nil }, isEOF, n},
		{"file/eof", file(native), isEOF, n},
		{"file/truncated", file(cut(trace.FormatNative, 3)), short, 3},
		{"tail/idle", tail(native, context.Background()), idle, n},
		{"tail/truncated", tail(cut(trace.FormatNative, 3), context.Background()), idle, 3},
		{"tail/malformed", tail(damage(trace.FormatNative, 2), context.Background()), malformed, 2},
		{"tail/canceled", tail(native, canceled), func(err error) bool { return errors.Is(err, context.Canceled) }, 0},
		{"chaos/eof", faulty(strict(native, trace.FormatNative)), isEOF, -1},
		{"chaos/truncated", faulty(strict(cut(trace.FormatNative, 4), trace.FormatNative)), short, -1},
		{"salvage/budget", salvage(damage(trace.FormatNative, 1, 4), trace.FormatNative, 1), func(err error) bool { return errors.Is(err, trace.ErrErrorBudget) }, -1},
	}
	for _, f := range []trace.Format{trace.FormatNative, trace.FormatPcap, trace.FormatERF} {
		data, _ := encode(f)
		cases = append(cases,
			borrowCase{"strict/" + f.String() + "/eof", strict(data, f), isEOF, n},
			borrowCase{"strict/" + f.String() + "/truncated", strict(cut(f, 3), f), short, 3},
			borrowCase{"strict/" + f.String() + "/malformed", strict(damage(f, 2), f), malformed, 2},
			borrowCase{"salvage/" + f.String() + "/eof", salvage(data, f, 0), isEOF, n},
			// A record cut short at the end is a truncated tail: salvage
			// ends on io.EOF there.
			borrowCase{"salvage/" + f.String() + "/truncated", salvage(cut(f, 3), f, 0), isEOF, 3},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			held := trace.Record{Time: -1, WireLen: -2, Lost: -3, Data: []byte{1, 2, 3}}
			for i := 0; i <= 4*n; i++ {
				rec := held
				err := src.Borrow(&rec)
				if err == nil {
					continue
				}
				if !c.want(err) {
					t.Fatalf("record %d: Borrow = %v, not the error this source ends on", i, err)
				}
				if c.reads >= 0 && i != c.reads {
					t.Errorf("Borrow failed at record %d, want %d", i, c.reads)
				}
				if rec.Time != held.Time || rec.WireLen != held.WireLen || rec.Lost != held.Lost ||
					len(rec.Data) != len(held.Data) || cap(rec.Data) != cap(held.Data) || &rec.Data[0] != &held.Data[0] {
					t.Fatalf("Borrow returned %v and changed the record to %+v", err, rec)
				}
				return
			}
			t.Fatalf("Borrow never failed in %d reads", 4*n+1)
		})
	}
}
