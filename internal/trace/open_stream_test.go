package trace

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOpenStreamPipe feeds a trace through a pipe — the shape of
// `cat capture.lspt | loopdetect -` — for each sniffable format,
// plain and gzipped. Nothing here may seek.
func TestOpenStreamPipe(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		format Format
		gz     bool
	}{
		{"native", formatNative, false},
		{"native-gz", formatNative, true},
		{"pcap", formatPcap, false},
		{"pcap-gz", formatPcap, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, want := writeOpenTest(t, dir, tc.name+".trace", tc.format, tc.gz)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pr, pw := io.Pipe()
			go func() {
				pw.Write(data)
				pw.Close()
			}()
			src, stats, err := OpenStream(pr, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats != nil {
				t.Fatal("non-salvage open returned DecodeStats")
			}
			got, err := ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("read %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Time != want[i].Time || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("record %d differs", i)
				}
			}
		})
	}
}

// TestOpenStreamSalvage routes a pipe through the salvage reader.
func TestOpenStreamSalvage(t *testing.T) {
	dir := t.TempDir()
	path, want := writeOpenTest(t, dir, "salv.lspt", formatNative, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, stats, err := OpenStream(bytes.NewReader(data), OpenOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("salvage open returned nil DecodeStats")
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
}

// TestOpenDashReadsStdin checks the "-" path end to end by swapping
// os.Stdin for a pipe.
func TestOpenDashReadsStdin(t *testing.T) {
	dir := t.TempDir()
	path, want := writeOpenTest(t, dir, "stdin.lspt", formatNative, false)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = old }()

	src, _, err := Open("-", OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	if src.Progress() != nil {
		t.Fatal("stdin source should not report byte progress")
	}
	if err := CloseSource(src); err != nil {
		t.Fatal(err)
	}
}
