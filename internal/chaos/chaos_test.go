package chaos

import (
	"bytes"
	"testing"
	"time"

	"loopscope/internal/trace"
)

func mkRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		data := make([]byte, 40)
		data[0] = 0x45
		data[16] = byte(i >> 8)
		data[17] = byte(i)
		recs[i] = trace.Record{
			Time:    time.Duration(i) * time.Millisecond,
			WireLen: 100,
			Data:    data,
		}
	}
	return recs
}

func meta() trace.Meta {
	return trace.Meta{Link: "chaos-test", SnapLen: 48, Start: time.Unix(1000, 0)}
}

func TestCorruptBytesDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44}, 1024)
	cfg := ByteFaults{Seed: 7, BitFlips: 5, GarbageBursts: 3, BurstLen: 32, TruncateTail: 10}
	a, da := CorruptBytes(data, cfg)
	b, db := CorruptBytes(data, cfg)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different corruption")
	}
	if len(da) != len(db) {
		t.Error("same seed produced different damage reports")
	}
	c, _ := CorruptBytes(data, ByteFaults{Seed: 8, BitFlips: 5, GarbageBursts: 3, BurstLen: 32, TruncateTail: 10})
	if bytes.Equal(a, c) {
		t.Error("different seeds produced identical corruption")
	}
	if bytes.Equal(data[:len(a)], a) {
		t.Error("no corruption applied")
	}
	if len(a) != len(data)-10 {
		t.Errorf("tail truncation: len %d, want %d", len(a), len(data)-10)
	}
}

func TestCorruptBytesRespectsProtect(t *testing.T) {
	data := make([]byte, 4096)
	protect := []Range{{Off: 0, Len: 256}, {Off: 2000, Len: 500}}
	out, damaged := CorruptBytes(data, ByteFaults{
		Seed: 3, BitFlips: 50, GarbageBursts: 20, BurstLen: 100, Protect: protect,
	})
	if !bytes.Equal(out[:256], data[:256]) {
		t.Error("protected header range modified")
	}
	if !bytes.Equal(out[2000:2500], data[2000:2500]) {
		t.Error("protected middle range modified")
	}
	for _, d := range damaged {
		if overlaps(protect, d.Off, d.Len) {
			t.Errorf("damage report %+v overlaps a protected range", d)
		}
	}
	if len(damaged) == 0 {
		t.Error("nothing damaged")
	}
}

func TestSourceDropAndCountLoss(t *testing.T) {
	recs := mkRecords(1000)
	src := NewSource(trace.NewSliceSource(meta(), recs), RecordFaults{
		Seed: 11, Drop: 0.2, CountLoss: true,
	})
	out, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.Dropped == 0 {
		t.Fatal("nothing dropped at 20%")
	}
	if len(out)+st.Dropped != len(recs) {
		t.Errorf("%d survivors + %d dropped != %d input", len(out), st.Dropped, len(recs))
	}
	lost := 0
	for _, r := range out {
		lost += r.Lost
	}
	// Drops after the last survivor are not attributable to any record.
	if lost == 0 || lost > st.Dropped {
		t.Errorf("Lost counters sum to %d, dropped %d", lost, st.Dropped)
	}
}

func TestSourceDupTruncateReorder(t *testing.T) {
	recs := mkRecords(2000)
	src := NewSource(trace.NewSliceSource(meta(), recs), RecordFaults{
		Seed: 5, Dup: 0.05, Truncate: 0.05, Reorder: 0.05,
	})
	out, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.Duplicated == 0 || st.Truncated == 0 || st.Reordered == 0 {
		t.Fatalf("faults not injected: %+v", st)
	}
	if len(out) != len(recs)+st.Duplicated {
		t.Errorf("%d out records, want %d", len(out), len(recs)+st.Duplicated)
	}
	// No record may vanish: every input identity must appear.
	seen := make(map[uint16]bool)
	short := 0
	for _, r := range out {
		if len(r.Data) >= 18 {
			seen[uint16(r.Data[16])<<8|uint16(r.Data[17])] = true
		} else {
			short++
		}
	}
	if len(seen)+short < len(recs) {
		t.Errorf("only %d identities + %d truncated of %d inputs", len(seen), short, len(recs))
	}
	if err := trace.Validate(out); err == nil {
		t.Error("reordered stream unexpectedly validates clean")
	}
}

func TestSinkMatchesSource(t *testing.T) {
	// The same seed must inject the same faults whether wrapped
	// around the producer or the consumer.
	recs := mkRecords(500)
	cfg := RecordFaults{Seed: 42, Drop: 0.1, Dup: 0.1, Truncate: 0.1, Reorder: 0.1, CountLoss: true}

	src := NewSource(trace.NewSliceSource(meta(), recs), cfg)
	fromSource, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}

	var collected []trace.Record
	sink := NewSink(sinkFunc(func(r trace.Record) error {
		collected = append(collected, r)
		return nil
	}), cfg)
	for _, r := range recs {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(fromSource) != len(collected) {
		t.Fatalf("source path %d records, sink path %d", len(fromSource), len(collected))
	}
	for i := range fromSource {
		if !bytes.Equal(fromSource[i].Data, collected[i].Data) || fromSource[i].Lost != collected[i].Lost {
			t.Fatalf("record %d differs between source and sink paths", i)
		}
	}
	if src.Stats() != sink.Stats() {
		t.Errorf("stats differ: %+v vs %+v", src.Stats(), sink.Stats())
	}
}

// TestSourceLendsOverAReader: over a reader that lends views of its
// window, every record reordered and every one duplicated, the
// delivered bytes equal the Sink's output for the same seed. The
// trace spans many window refills, so a held-back record that kept
// the reader's bytes instead of copying them would read as another.
func TestSourceLendsOverAReader(t *testing.T) {
	recs := mkRecords(20_000)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, meta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := RecordFaults{Seed: 3, Reorder: 1, Dup: 1}
	r, _, err := trace.OpenStream(&buf, trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(r, cfg)
	got, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}

	var want []trace.Record
	sink := NewSink(sinkFunc(func(r trace.Record) error {
		want = append(want, r)
		return nil
	}), cfg)
	for _, r := range recs {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.Reordered == 0 || st.Duplicated == 0 || st != sink.Stats() {
		t.Fatalf("faults: source %+v, sink %+v", st, sink.Stats())
	}
	if len(got) != len(want) {
		t.Fatalf("source delivered %d records, sink %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, want[i].Data) || got[i].Time != want[i].Time {
			t.Fatalf("record %d: source delivered %x at %v, sink %x at %v", i, got[i].Data, got[i].Time, want[i].Data, want[i].Time)
		}
	}
}

type sinkFunc func(trace.Record) error

func (f sinkFunc) Write(r trace.Record) error { return f(r) }

func TestZeroConfigIsTransparent(t *testing.T) {
	recs := mkRecords(100)
	src := NewSource(trace.NewSliceSource(meta(), recs), RecordFaults{Seed: 1})
	out, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(recs) {
		t.Fatalf("zero config changed record count: %d != %d", len(out), len(recs))
	}
	for i := range out {
		if !bytes.Equal(out[i].Data, recs[i].Data) || out[i].Time != recs[i].Time {
			t.Fatalf("zero config modified record %d", i)
		}
	}
}
