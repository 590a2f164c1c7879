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

// TestOpenOneWrapper checks the File Open returns, metered or not: it
// wraps the bare strict reader, lends, reports file progress, counts
// every record it hands out when metered, and closes the file. A
// metered file read goes through this one wrapper and no second one.
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
		if _, ok := src.src.(*reader); !ok {
			t.Fatalf("tap wraps %T, want the bare strict reader", src.src)
		}
		progress := src.Progress()
		if progress == nil {
			t.Fatal("a file source reports no progress")
		}
		n := 0
		for ; ; n++ {
			rec, err := borrow(src)
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
		if err := src.f.Close(); err == nil {
			t.Fatal("the file is still open after CloseSource")
		}
	}
}

// TestOpenStreamOneFrame: OpenStream with a registry, the way
// loopdetect reads stdin, puts exactly one frame, the tap, between the
// reader and its consumer, strict or salvaging.
func TestOpenStreamOneFrame(t *testing.T) {
	path, want := writeOpenTest(t, t.TempDir(), "t.lspt", FormatNative, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, salvage := range []bool{false, true} {
		reg := obs.NewRegistry()
		src, _, err := OpenStream(bytes.NewReader(data), OpenOptions{Metrics: reg, Salvage: salvage})
		if err != nil {
			t.Fatal(err)
		}
		switch inner := src.src.(type) {
		case *reader, *salvageReader:
		default:
			t.Fatalf("salvage %v: the tap wraps %T, want the bare reader", salvage, inner)
		}
		if got, err := ReadAll(src); err != nil || len(got) != len(want) {
			t.Fatalf("salvage %v: read %d of %d records: %v", salvage, len(got), len(want), err)
		}
		if got := reg.Counter(obs.MetricTraceRecords).Value(); got != int64(len(want)) {
			t.Fatalf("salvage %v: records counter = %d, want %d", salvage, got, len(want))
		}
	}

	// The salvage gauges go out with the counters, so once the read ends
	// they match the DecodeStats, the bytes of a truncated tail skipped
	// at the end included.
	reg := obs.NewRegistry()
	src, stats, err := OpenStream(bytes.NewReader(data[:len(data)-3]), OpenOptions{Metrics: reg, Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(src); err != nil || stats.BytesSkipped == 0 {
		t.Fatalf("truncated tail: %v, %d bytes skipped", err, stats.BytesSkipped)
	}
	for name, want := range map[string]int64{
		obs.MetricSalvageRecords: int64(stats.Records), obs.MetricSalvageSalvaged: int64(stats.Salvaged),
		obs.MetricSalvageErrors: int64(stats.Errors), obs.MetricSalvageResyncs: int64(stats.Resyncs),
		obs.MetricSalvageBytesSkipped: stats.BytesSkipped,
	} {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %d, DecodeStats says %d", name, got, want)
		}
	}
}
