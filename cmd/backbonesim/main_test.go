package main

import (
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
	r, _, err := trace.OpenStream(f, trace.OpenOptions{Format: trace.FormatNative})
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
	f, err := os.Open(filepath.Join(dir, "backbone3.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, err := trace.OpenStream(f, trace.OpenOptions{Format: trace.FormatPcap}); err != nil {
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
