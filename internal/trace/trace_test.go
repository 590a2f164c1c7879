package trace

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Time: 0, WireLen: 60, Data: []byte{1, 2, 3, 4}},
		{Time: 150 * time.Microsecond, WireLen: 1500, Data: bytes.Repeat([]byte{0xaa}, 40)},
		{Time: 2 * time.Second, WireLen: 40, Data: bytes.Repeat([]byte{0x55}, 40)},
	}
}

func TestNativeRoundTrip(t *testing.T) {
	meta := Meta{Link: "backbone-test", Start: time.Unix(1005202800, 123), SnapLen: 40}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}

	r, err := newReader(newWindow(&buf), FormatNative)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Meta(); got.Link != meta.Link || got.SnapLen != 40 ||
		!got.Start.Equal(meta.Start) {
		t.Errorf("meta mismatch: %+v", got)
	}
	for i, want := range recs {
		got, err := borrow(r)
		if err != nil {
			t.Fatalf("Borrow %d: %v", i, err)
		}
		if got.Time != want.Time || got.WireLen != want.WireLen || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := borrow(r); err != io.EOF {
		t.Errorf("after last record err = %v, want EOF", err)
	}
}

func TestNativeRejectsBadRecords(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Link: "x", SnapLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{WireLen: 100, Data: make([]byte, 41)}); err == nil {
		t.Error("caplen > snaplen accepted")
	}
	if err := w.Write(Record{WireLen: 10, Data: make([]byte, 20)}); err == nil {
		t.Error("wirelen < caplen accepted")
	}
}

func TestNativeBadMagic(t *testing.T) {
	if _, err := newReader(newWindow(strings.NewReader("NOPE....")), FormatNative); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := newReader(newWindow(strings.NewReader("LS")), FormatNative); err == nil {
		t.Error("truncated magic accepted")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	meta := Meta{Link: "pcap-test", Start: time.Unix(1005202800, 500), SnapLen: 40}
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := newReader(newWindow(&buf), FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta().SnapLen != 40 {
		t.Errorf("snaplen = %d", r.Meta().SnapLen)
	}
	for i, want := range recs {
		got, err := borrow(r)
		if err != nil {
			t.Fatalf("Borrow %d: %v", i, err)
		}
		if got.Time != want.Time || got.WireLen != want.WireLen || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("record %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := borrow(r); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestPcapMicrosecondAndBigEndian(t *testing.T) {
	// Hand-build a big-endian, microsecond-resolution pcap with one
	// 4-byte record.
	var buf bytes.Buffer
	hdr := []byte{
		0xa1, 0xb2, 0xc3, 0xd4, // magic, big-endian, micros
		0, 2, 0, 4, // version 2.4
		0, 0, 0, 0, 0, 0, 0, 0, // thiszone, sigfigs
		0, 0, 0, 40, // snaplen
		0, 0, 0, 101, // linktype raw
	}
	rec := []byte{
		0, 0, 0, 10, // sec
		0, 0, 0x03, 0xe8, // usec = 1000
		0, 0, 0, 4, // caplen
		0, 0, 0, 60, // wirelen
		0xde, 0xad, 0xbe, 0xef,
	}
	buf.Write(hdr)
	buf.Write(rec)
	r, err := newReader(newWindow(&buf), FormatPcap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := borrow(r)
	if err != nil {
		t.Fatal(err)
	}
	// First record defines the trace start, so its offset is zero.
	if got.Time != 0 {
		t.Errorf("first record offset = %v, want 0", got.Time)
	}
	if got.WireLen != 60 || !bytes.Equal(got.Data, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Errorf("record = %+v", got)
	}
	if !r.Meta().Start.Equal(time.Unix(10, 1000*1000)) {
		t.Errorf("start = %v", r.Meta().Start)
	}
}

func TestPcapRejectsWrongLinkType(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf, Meta{SnapLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[20] = 1 // linktype ethernet (little-endian field)
	if _, err := newReader(newWindow(bytes.NewReader(b)), FormatPcap); err == nil {
		t.Error("ethernet link type accepted")
	}
}

func TestPcapBadMagic(t *testing.T) {
	if _, err := newReader(newWindow(strings.NewReader("this is not a pcap file.")), FormatPcap); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSliceSource(t *testing.T) {
	recs := sampleRecords()
	s := NewSliceSource(Meta{Link: "mem"}, recs)
	if s.Meta().SnapLen != DefaultSnapLen {
		t.Errorf("default snaplen not applied: %d", s.Meta().SnapLen)
	}
	got, err := ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadAll returned %d records", len(got))
	}
	if _, err := borrow(s); err != io.EOF {
		t.Errorf("exhausted source err = %v", err)
	}
	s.Reset()
	if r, err := borrow(s); err != nil || r.Time != recs[0].Time {
		t.Errorf("Reset did not rewind")
	}
}

// TestSliceSourceLends: a SliceSource lends the caller's records as
// they are, Data included, with no copy.
func TestSliceSourceLends(t *testing.T) {
	recs := sampleRecords()
	s := NewSliceSource(Meta{}, recs)
	for i := range recs {
		r, err := borrow(s)
		if err != nil || &r.Data[0] != &recs[i].Data[0] {
			t.Fatalf("record %d: %v, or Data is a copy", i, err)
		}
	}
}

func TestValidate(t *testing.T) {
	good := sampleRecords()
	if err := Validate(good); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	back := []Record{
		{Time: time.Second, WireLen: 10, Data: []byte{1}},
		{Time: 0, WireLen: 10, Data: []byte{1}},
	}
	if err := Validate(back); err == nil {
		t.Error("time-reversed trace accepted")
	}
	big := []Record{{Time: 0, WireLen: 2, Data: []byte{1, 2, 3}}}
	if err := Validate(big); err == nil {
		t.Error("caplen > wirelen accepted")
	}
}

func TestNativeRoundTripLarge(t *testing.T) {
	// A few thousand records through the buffered writer/reader.
	meta := Meta{Link: "bulk", Start: time.Unix(0, 0), SnapLen: 40}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		data := make([]byte, 40)
		data[0] = byte(i)
		data[1] = byte(i >> 8)
		if err := w.Write(Record{
			Time: time.Duration(i) * time.Millisecond, WireLen: 1500, Data: data,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := newReader(newWindow(&buf), FormatNative)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.Data[0] != byte(i) || rec.Data[1] != byte(i>>8) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestERFRoundTrip(t *testing.T) {
	meta := Meta{Link: "pos-link", Start: time.Unix(1005202800, 123456789), SnapLen: 40}
	var buf bytes.Buffer
	w, err := NewERFWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := newReader(newWindow(&buf), FormatERF)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := borrow(r)
		if err != nil {
			t.Fatalf("Borrow %d: %v", i, err)
		}
		// ERF's fractional timestamp has 2^-32 s resolution; allow a
		// few nanoseconds of rounding.
		dt := got.Time - want.Time
		if dt < -2 || dt > 2 {
			t.Errorf("record %d time %v, want %v", i, got.Time, want.Time)
		}
		if got.WireLen != want.WireLen || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := borrow(r); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
	if !r.Meta().Start.Truncate(time.Microsecond).Equal(meta.Start.Add(recs[0].Time).Truncate(time.Microsecond)) {
		t.Errorf("start = %v", r.Meta().Start)
	}
}

func TestERFRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 16)
	hdr[8] = 2 // TYPE_ETH, unsupported
	hdr[10], hdr[11] = 0, 24
	buf.Write(hdr)
	buf.Write(make([]byte, 8))
	r, err := newReader(newWindow(&buf), FormatERF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := borrow(r); err == nil {
		t.Error("ethernet ERF record accepted")
	}
}

func TestERFRejectsShortRlen(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 16)
	hdr[8] = 1
	hdr[10], hdr[11] = 0, 10 // rlen shorter than the header itself
	buf.Write(hdr)
	r, err := newReader(newWindow(&buf), FormatERF)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := borrow(r); err == nil {
		t.Error("bogus rlen accepted")
	}
}

// TestWriteAllocationBudget: a written record costs its bytes in the
// writer's buffer and no allocation of its own, in every format.
func TestWriteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 50_000
	for _, f := range []Format{FormatNative, FormatPcap, FormatERF} {
		recs := randomRecords(rand.New(rand.NewSource(5)), f, n)
		w := newFormatWriter(t, f, io.Discard, Meta{Link: "budget", SnapLen: 48, Start: time.Unix(1_000_000, 0)})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%v: %.4f allocs per record", f, allocs)
		if allocs > 0.01 {
			t.Errorf("%v: writing costs %.4f allocs per record, budget 0.01", f, allocs)
		}
	}
}
