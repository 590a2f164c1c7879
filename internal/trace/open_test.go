package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/obs"
)

// openTestRecords is a tiny but non-trivial record set: plausible IPv4
// snapshots with moving timestamps.
func openTestRecords() []Record {
	var recs []Record
	for i := 0; i < 40; i++ {
		data := make([]byte, 28)
		data[0] = 0x45 // version 4, IHL 5
		data[8] = byte(60 - i)
		data[9] = 17 // UDP
		data[16], data[17], data[18], data[19] = 203, 0, 113, byte(i)
		recs = append(recs, Record{
			Time:    time.Duration(i) * time.Millisecond,
			WireLen: 100,
			Data:    data,
		})
	}
	return recs
}

// writeOpenTest encodes recs in the given format, optionally gzipped,
// into dir and returns the path.
func writeOpenTest(t *testing.T, dir, name string, format Format, gz bool) (string, []Record) {
	t.Helper()
	recs := openTestRecords()
	var buf bytes.Buffer
	meta := Meta{Link: "open-test", SnapLen: 40, Start: time.Unix(0, 0)}
	var w interface {
		Write(Record) error
		Flush() error
	}
	var err error
	switch format {
	case FormatNative:
		w, err = NewWriter(&buf, meta)
	case FormatPcap:
		w, err = NewPcapWriter(&buf, meta)
	case FormatERF:
		w, err = NewERFWriter(&buf, meta)
	}
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
	out := buf.Bytes()
	if gz {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(out); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		out = zbuf.Bytes()
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// TestOpenFormats: Open must sniff native and pcap (plain and
// gzipped) and honor a forced format for ERF, which has no magic.
func TestOpenFormats(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		enc  Format
		gz   bool
		opts OpenOptions
	}{
		{"native", FormatNative, false, OpenOptions{}},
		{"native-gz", FormatNative, true, OpenOptions{}},
		{"pcap", FormatPcap, false, OpenOptions{}},
		{"pcap-gz", FormatPcap, true, OpenOptions{}},
		{"native-forced", FormatNative, false, OpenOptions{Format: FormatNative}},
		{"pcap-forced", FormatPcap, false, OpenOptions{Format: FormatPcap}},
		{"erf-forced", FormatERF, false, OpenOptions{Format: FormatERF}},
		{"erf-gz-forced", FormatERF, true, OpenOptions{Format: FormatERF}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path, want := writeOpenTest(t, dir, c.name, c.enc, c.gz)
			src, stats, err := Open(path, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer CloseSource(src)
			if stats != nil {
				t.Error("DecodeStats non-nil without salvage")
			}
			got, err := ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("read %d of %d records", len(got), len(want))
			}
			if !bytes.Equal(got[7].Data, want[7].Data) {
				t.Error("record 7 data mismatch")
			}
			// Only the native format persists the link name.
			if c.enc == FormatNative && src.Meta().Link != "open-test" {
				t.Errorf("meta link = %q", src.Meta().Link)
			}
		})
	}
}

// TestOpenSalvage: with Salvage set, Open must survive a corrupt
// region and expose live decode statistics.
func TestOpenSalvage(t *testing.T) {
	dir := t.TempDir()
	path, want := writeOpenTest(t, dir, "damaged", FormatNative, false)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stomp a run of bytes past the header region.
	for i := len(raw) / 2; i < len(raw)/2+60 && i < len(raw); i++ {
		raw[i] = 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Open(path, OpenOptions{}); err == nil {
		// Strict native reads may also fail later, at ReadAll; accept
		// either as long as the records do not silently pass.
		src, _, _ := Open(path, OpenOptions{})
		if got, err := ReadAll(src); err == nil && len(got) == len(want) {
			t.Fatal("strict open read a corrupted trace cleanly")
		}
		CloseSource(src)
	}

	src, stats, err := Open(path, OpenOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSource(src)
	if stats == nil {
		t.Fatal("salvage open returned nil DecodeStats")
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(want)/2 {
		t.Errorf("salvaged only %d of %d records", len(got), len(want))
	}
	if stats.Errors == 0 {
		t.Error("live DecodeStats recorded no errors after draining")
	}
}

// TestOpenSalvageBudget: MaxDecodeErrors propagates to the salvage
// reader's error budget.
func TestOpenSalvageBudget(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeOpenTest(t, dir, "budget", FormatNative, false)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 40; i < len(raw); i += 50 {
		raw[i] ^= 0xA5
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src, _, err := Open(path, OpenOptions{Salvage: true, MaxDecodeErrors: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseSource(src)
	if _, err := ReadAll(src); err == nil {
		t.Error("error budget of 1 never tripped on a riddled trace")
	}
}

// TestOpenRejectsGarbageAndMissing: a non-trace file and a missing
// path both fail cleanly.
func TestOpenRejectsGarbageAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, []byte("this is not a trace at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, OpenOptions{}); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := Open(filepath.Join(dir, "nope"), OpenOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestOpenOneWrapper checks the source Open returns, metered or not: it
// lends, reports file progress, counts every record it hands out when
// metered, and closes the file. A metered file read goes through this
// one wrapper and no second one.
func TestOpenOneWrapper(t *testing.T) {
	path, want := writeOpenTest(t, t.TempDir(), "t.lspt", FormatNative, false)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		src, _, err := Open(path, OpenOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		m, ok := src.(*meteredSource)
		if !ok {
			t.Fatalf("Open returned %T, want the one tap wrapper", src)
		}
		if _, ok := m.src.(*Reader); !ok {
			t.Fatalf("tap wraps %T, want the bare *Reader", m.src)
		}
		progress := ProgressOf(src)
		if progress == nil {
			t.Fatal("a file source reports no progress")
		}
		lender := Lender(src)
		n := 0
		for ; ; n++ {
			rec, err := lender.Borrow()
			if err != nil {
				break
			}
			if !bytes.Equal(rec.Data, want[n].Data) {
				t.Fatalf("record %d differs", n)
			}
		}
		if n != len(want) {
			t.Fatalf("borrowed %d records, want %d", n, len(want))
		}
		if off, size := progress(); off != st.Size() || size != st.Size() {
			t.Fatalf("progress = %d/%d after the last record, want %d/%d", off, size, st.Size(), st.Size())
		}
		if got := reg.Counter(obs.MetricTraceRecords).Value(); reg != nil && got != int64(len(want)) {
			t.Fatalf("records counter = %d, want %d", got, len(want))
		}
		if err := CloseSource(src); err != nil {
			t.Fatal(err)
		}
		if err := m.f.Close(); err == nil {
			t.Fatal("the file is still open after CloseSource")
		}
	}
}

// TestMeterSourceBorrowsOverNext: over a source that does not lend,
// Borrow reads through Next and counts as it does. A SliceSource lends,
// so it is wrapped in a struct that carries only Source's methods.
func TestMeterSourceBorrowsOverNext(t *testing.T) {
	reg := obs.NewRegistry()
	recs := openTestRecords()
	src := struct{ Source }{NewSliceSource(Meta{}, recs)}
	if _, lends := Source(src).(Borrower); lends {
		t.Fatal("test source lends; Borrow's fallback would not run")
	}
	lender := Lender(MeterSource(src, reg, nil))
	n := 0
	for ; ; n++ {
		if _, err := lender.Borrow(); err != nil {
			break
		}
	}
	if n != len(recs) {
		t.Fatalf("borrowed %d records, want %d", n, len(recs))
	}
	if got := reg.Counter(obs.MetricTraceCaptureBytes).Value(); got != int64(len(recs)*28) {
		t.Fatalf("capture bytes counter = %d, want %d", got, len(recs)*28)
	}
}
