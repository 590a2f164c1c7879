package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"time"

	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/trace"
)

func TestRunWritesOneBackbone(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "backbone3", false, 0.15, false, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "backbone3.lspt")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, _, err := trace.OpenStream(f, trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta().Link != "backbone3" {
		t.Errorf("link = %q", r.Meta().Link)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 1000 {
		t.Fatalf("only %d records", len(recs))
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatal(err)
	}
	// The written trace is detectable end to end.
	res := core.DetectRecords(recs, core.DefaultConfig())
	_ = res // loop presence at 0.15 scale is seed-dependent; parsing is the contract
}

func TestRunPcap(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "backbone3", true, 0.1, false, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "backbone3.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	// Little-endian pcap with nanosecond timestamps, as trace.PcapWriter
	// writes it.
	if !bytes.HasPrefix(data, []byte{0x4d, 0x3c, 0xb2, 0xa1}) {
		t.Fatalf("not a pcap file: it starts % x", data[:min(4, len(data))])
	}
	if _, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "nope", false, 1, false, 0); err == nil {
		t.Error("unknown backbone accepted")
	}
	if err := run(dir, "", false, 0, false, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestRunWritesFIBSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, "backbone3", false, 0.1, true, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f, err := fibscan.ReadFile(filepath.Join(dir, "backbone3_fibs.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Network != "backbone3" || len(f.Snapshots) < 2 {
		t.Fatalf("network=%q snapshots=%d", f.Network, len(f.Snapshots))
	}
	// The written timeline is scannable.
	reports := fibscan.ScanTimeline(f.Snapshots)
	if len(reports) != len(f.Snapshots) {
		t.Fatalf("reports=%d", len(reports))
	}
}
