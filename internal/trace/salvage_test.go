package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// testRecords builds n well-formed records with distinct payloads and
// strictly increasing timestamps.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		data := make([]byte, 40)
		data[0] = 0x45
		data[8] = 60 // TTL
		data[16] = byte(i >> 8)
		data[17] = byte(i)
		data[19] = byte(i * 7)
		recs[i] = Record{
			Time:    time.Duration(i) * time.Millisecond,
			WireLen: 100 + i%10,
			Data:    data,
		}
	}
	return recs
}

// encodeTrace writes recs in the given format and returns the encoded
// bytes plus the byte offset where each record starts (headerOff is
// the offset of the first record).
func encodeTrace(t testing.TB, format Format, recs []Record) (data []byte, offs []int64) {
	t.Helper()
	var buf bytes.Buffer
	w := newFormatWriter(t, format, &buf, Meta{Link: "salvage-test", SnapLen: 48, Start: time.Unix(1_000_000, 0)})
	for _, r := range recs {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, int64(buf.Len()))
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), offs
}

// formatWriter is what the three formats' writers share.
type formatWriter interface {
	Write(Record) error
	Flush() error
}

// newFormatWriter returns the writer of format over out.
func newFormatWriter(t testing.TB, format Format, out io.Writer, meta Meta) formatWriter {
	t.Helper()
	var w formatWriter
	var err error
	switch format {
	case formatNative:
		w, err = NewWriter(out, meta)
	case formatPcap:
		w, err = NewPcapWriter(out, meta)
	case FormatERF:
		w, err = NewERFWriter(out, meta)
	default:
		t.Fatalf("bad format %v", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func salvageAll(t *testing.T, data []byte, opts salvageOptions) ([]Record, DecodeStats, error) {
	t.Helper()
	s, err := newSalvageReader(newWindow(bytes.NewReader(data)), opts)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(s)
	return recs, s.stats, err
}

func allFormats() []Format { return []Format{formatNative, formatPcap, FormatERF} }

func TestSalvageCleanRoundTrip(t *testing.T) {
	for _, f := range allFormats() {
		t.Run(f.String(), func(t *testing.T) {
			want := testRecords(200)
			data, _ := encodeTrace(t, f, want)
			// Exercise both explicit format selection and sniffing.
			for _, opt := range []salvageOptions{{Format: f}, {}} {
				got, stats, err := salvageAll(t, data, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("got %d records, want %d", len(got), len(want))
				}
				if stats.Errors != 0 || stats.Resyncs != 0 || stats.BytesSkipped != 0 || stats.TruncatedTail {
					t.Errorf("clean trace produced stats %+v", stats)
				}
				for i := range got {
					if !bytes.Equal(got[i].Data, want[i].Data) {
						t.Fatalf("record %d data mismatch", i)
					}
					// ERF's 2^-32 fixed-point fractional seconds
					// round-trip with sub-nanosecond error.
					if d := got[i].Time - want[i].Time; d < -time.Nanosecond || d > time.Nanosecond {
						t.Fatalf("record %d time %v want %v", i, got[i].Time, want[i].Time)
					}
				}
			}
		})
	}
}

func TestSalvageGarbageBurst(t *testing.T) {
	for _, f := range allFormats() {
		t.Run(f.String(), func(t *testing.T) {
			want := testRecords(200)
			data, offs := encodeTrace(t, f, want)
			// Overwrite records 50..52 (three records) with garbage.
			lo, hi := offs[50], offs[53]
			for i := lo; i < hi; i++ {
				data[i] = 0xA5
			}
			got, stats, err := salvageAll(t, data, salvageOptions{Format: f})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want)-3 {
				t.Fatalf("salvaged %d records, want %d", len(got), len(want)-3)
			}
			if stats.Errors == 0 || stats.Resyncs == 0 {
				t.Errorf("stats did not record the damage: %+v", stats)
			}
			if stats.BytesSkipped < hi-lo {
				t.Errorf("BytesSkipped = %d, want >= %d", stats.BytesSkipped, hi-lo)
			}
			if stats.Salvaged != len(want)-53 {
				t.Errorf("Salvaged = %d, want %d", stats.Salvaged, len(want)-53)
			}
			// Every surviving record matches an original payload, in order.
			j := 0
			for i := range got {
				for j < len(want) && !bytes.Equal(got[i].Data, want[j].Data) {
					j++
				}
				if j == len(want) {
					t.Fatalf("salvaged record %d matches no original", i)
				}
				j++
			}
		})
	}
}

func TestSalvageTruncatedTail(t *testing.T) {
	for _, f := range allFormats() {
		t.Run(f.String(), func(t *testing.T) {
			want := testRecords(50)
			data, offs := encodeTrace(t, f, want)
			// Cut the file in the middle of the last record.
			cut := offs[49] + 5
			got, stats, err := salvageAll(t, data[:cut], salvageOptions{Format: f})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 49 {
				t.Fatalf("got %d records, want 49", len(got))
			}
			if !stats.TruncatedTail {
				t.Error("TruncatedTail not set")
			}
			if stats.BytesSkipped != 5 {
				t.Errorf("BytesSkipped = %d, want 5", stats.BytesSkipped)
			}
		})
	}
}

func TestSalvageErrorBudget(t *testing.T) {
	want := testRecords(100)
	data, offs := encodeTrace(t, formatNative, want)
	// Three separate corrupt regions.
	for _, k := range []int{10, 40, 70} {
		for i := offs[k]; i < offs[k+1]; i++ {
			data[i] = 0xFF
		}
	}
	// Budget of 3 tolerates them...
	_, stats, err := salvageAll(t, data, salvageOptions{Format: formatNative, MaxErrors: 3})
	if err != nil {
		t.Fatalf("budget 3: %v", err)
	}
	if stats.Errors != 3 {
		t.Errorf("Errors = %d, want 3", stats.Errors)
	}
	// ...a budget of 2 does not.
	_, _, err = salvageAll(t, data, salvageOptions{Format: formatNative, MaxErrors: 2})
	if !errors.Is(err, errErrorBudget) {
		t.Fatalf("budget 2: err = %v, want errErrorBudget", err)
	}
}

func TestSalvageBackwardsTimestamp(t *testing.T) {
	// A record whose timestamp field is damaged (goes backwards) but
	// whose length fields still parse must be skipped, not returned.
	want := testRecords(20)
	data, offs := encodeTrace(t, formatNative, want)
	// Native record header: time is the first 8 bytes (big endian).
	// Zero them on record 10 (its true offset is 10ms).
	copy(data[offs[10]:offs[10]+8], make([]byte, 8))
	got, stats, err := salvageAll(t, data, salvageOptions{Format: formatNative})
	if err != nil {
		t.Fatal(err)
	}
	// Record 10 decodes with time 0 < 9ms: corrupt. Salvage resyncs at
	// record 11.
	if len(got) != 19 {
		t.Fatalf("got %d records, want 19", len(got))
	}
	if stats.Errors == 0 {
		t.Error("backwards timestamp not counted as an error")
	}
	for _, r := range got {
		if r.Time == 10*time.Millisecond {
			t.Error("damaged record survived salvage")
		}
	}
}

func TestSalvageERFLossCounter(t *testing.T) {
	recs := testRecords(10)
	recs[3].Lost = 7
	recs[8].Lost = 2
	data, _ := encodeTrace(t, FormatERF, recs)

	// Strict reader round-trips the counter.
	r, err := newReader(newWindow(bytes.NewReader(data)), FormatERF)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if got[3].Lost != 7 || got[8].Lost != 2 || got[0].Lost != 0 {
		t.Errorf("Lost counters = %d,%d,%d want 7,2,0", got[3].Lost, got[8].Lost, got[0].Lost)
	}
	events, lost := 0, 0
	for _, rec := range got {
		if rec.Lost > 0 {
			events++
			lost += rec.Lost
		}
	}
	if events != 2 || lost != 9 {
		t.Errorf("reader loss totals = %d events, %d records; want 2, 9", events, lost)
	}

	// Salvage reader accumulates the same totals in its stats.
	_, stats, err := salvageAll(t, data, salvageOptions{Format: FormatERF})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LossEvents != 2 || stats.LostRecords != 9 {
		t.Errorf("salvage loss totals = %d events, %d records; want 2, 9", stats.LossEvents, stats.LostRecords)
	}
}

func TestSalvageRejectsCorruptFileHeader(t *testing.T) {
	data, _ := encodeTrace(t, formatNative, testRecords(5))
	data[0] = 'X' // break the magic
	if _, err := newSalvageReader(newWindow(bytes.NewReader(data)), salvageOptions{Format: formatNative}); err == nil {
		t.Error("corrupt native file header accepted")
	}
	if _, err := newSalvageReader(newWindow(bytes.NewReader([]byte("garbage!"))), salvageOptions{}); err == nil {
		t.Error("unrecognizable input accepted by auto-detection")
	}
}

func TestSalvageEmptyAndTinyInputs(t *testing.T) {
	if _, err := newSalvageReader(newWindow(bytes.NewReader(nil)), salvageOptions{}); err == nil {
		t.Error("empty input accepted by auto-detection")
	}
	// An explicitly-ERF stub shorter than one header is a truncated
	// tail, not an error.
	s, err := newSalvageReader(newWindow(bytes.NewReader([]byte{1, 2, 3})), salvageOptions{Format: FormatERF})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := borrow(s); err != io.EOF {
		t.Fatalf("Borrow = %v, want io.EOF", err)
	}
	if !s.stats.TruncatedTail {
		t.Error("tiny ERF stub not reported as truncated tail")
	}
}

// TestSalvagePoisonedTimestampAnchor covers the anchor-rollback rule:
// a damaged record whose corrupted timestamp still parses as a
// plausible forward jump must not strand the rest of the trace. The
// junk time is accepted once (it cannot be distinguished from an idle
// link at that point), but the moment its successor fails to parse
// the anchor must fall back to the confirmed predecessor so the true
// stream resynchronizes immediately.
func TestSalvagePoisonedTimestampAnchor(t *testing.T) {
	want := testRecords(200)
	data, offs := encodeTrace(t, formatNative, want)

	// Rewrite record 100's timestamp to 30 minutes ahead — inside the
	// default 1h MaxGap, so the static and continuity checks accept
	// it — while leaving the length fields intact (alignment holds).
	poisoned := uint64((100*time.Millisecond + 30*time.Minute))
	for i := 0; i < 8; i++ {
		data[offs[100]+int64(i)] = byte(poisoned >> (56 - 8*i))
	}

	got, stats, err := salvageAll(t, data, salvageOptions{Format: formatNative})
	if err != nil {
		t.Fatal(err)
	}
	// Everything is recovered: 99 before the poison, the poisoned
	// record itself (junk time, intact body), and — thanks to the
	// rollback — all 99 after it.
	if len(got) != 200 {
		t.Fatalf("recovered %d of 200 records", len(got))
	}
	if got[100].Time != time.Duration(poisoned) {
		t.Errorf("poisoned record time = %v", got[100].Time)
	}
	// Records after the poison carry their true timestamps.
	for i := 101; i < 200; i++ {
		if got[i].Time != want[i].Time {
			t.Fatalf("record %d time = %v, want %v", i, got[i].Time, want[i].Time)
		}
	}
	// One error region (opened at record 101, which looked backwards
	// next to the junk time), one resync, no cascade.
	if stats.Errors != 1 || stats.Resyncs != 1 {
		t.Errorf("errors=%d resyncs=%d, want 1/1: %+v", stats.Errors, stats.Resyncs, stats)
	}
}
