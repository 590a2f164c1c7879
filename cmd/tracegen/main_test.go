package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/trace"
)

func gen(d time.Duration, pps float64, loops, prefixes int, seed uint64, pcap, gz bool) genConfig {
	return genConfig{duration: d, pps: pps, loops: loops, prefixes: prefixes, seed: seed, pcap: pcap, gz: gz}
}

func TestRunWritesDetectableTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lspt")
	if err := run(path, gen(20*time.Second, 3000, 5, 64, 7, false, false)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("LSPT")) {
		t.Fatalf("not a native trace: it starts % x", data[:min(4, len(data))])
	}
	r, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 20000 {
		t.Fatalf("only %d records", len(recs))
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatal(err)
	}
	res := core.DetectRecords(recs, core.DefaultConfig())
	if len(res.Loops) == 0 {
		t.Error("scripted loops not detectable")
	}
}

func TestRunPcapOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pcap")
	if err := run(path, gen(5*time.Second, 1000, 2, 32, 3, true, false)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Little-endian pcap with nanosecond timestamps, as trace.PcapWriter
	// writes it.
	if !bytes.HasPrefix(data, []byte{0x4d, 0x3c, 0xb2, 0xa1}) {
		t.Fatalf("not a pcap file: it starts % x", data[:min(4, len(data))])
	}
	r, _, err := trace.OpenStream(bytes.NewReader(data), trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3000 {
		t.Fatalf("only %d records", len(recs))
	}
}

func TestRunGzipOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lspt.gz")
	if err := run(path, gen(3*time.Second, 1000, 1, 16, 2, false, true)); err != nil {
		t.Fatal(err)
	}
	// The gzip magic must be present.
	b := make([]byte, 2)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Read(b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("not gzip: % x", b)
	}
}

func TestRunByteChaosNeedsSalvage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "damaged.lspt")
	cfg := gen(5*time.Second, 1000, 2, 32, 3, false, false)
	cfg.byteFaults.Seed = 9
	cfg.byteFaults.GarbageBursts = 10
	cfg.byteFaults.BurstLen = 80
	cfg.byteFaults.TruncateTail = 7
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}

	// The strict reader must fail somewhere in the damaged file...
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := trace.OpenStream(f, trace.OpenOptions{})
	if err == nil {
		_, err = trace.ReadAll(r)
	}
	f.Close()
	if err == nil {
		t.Fatal("strict reader read a chaos-damaged trace cleanly")
	}

	// ...while the salvage reader recovers the bulk of it.
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sr, stats, err := trace.OpenStream(f, trace.OpenOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resyncs == 0 || !stats.TruncatedTail {
		t.Errorf("expected resyncs and a truncated tail, got %+v", stats)
	}
	if len(recs) < 4000 {
		t.Errorf("salvaged only %d records", len(recs))
	}
}

func TestRunRecordChaosStaysReadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lossy.lspt")
	cfg := gen(5*time.Second, 1000, 2, 32, 3, false, false)
	cfg.recordFaults.Seed = 4
	cfg.recordFaults.Drop = 0.05
	cfg.recordFaults.Dup = 0.01
	if err := run(path, cfg); err != nil {
		t.Fatal(err)
	}
	// Record-level faults degrade content, not structure: the strict
	// reader must still read the whole file.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, _, err := trace.OpenStream(f, trace.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3000 {
		t.Fatalf("only %d records", len(recs))
	}
}

// TestOutputBytesUnchanged: writing records as they are synthesized —
// through gzip, through the record-fault sink — produces the files that
// synthesizing the whole trace and encoding it in memory produced. The
// hashes are of the previous implementation's output.
func TestOutputBytesUnchanged(t *testing.T) {
	chaotic := gen(8*time.Second, 1000, 2, 32, 5, false, false)
	chaotic.recordFaults.Drop, chaotic.recordFaults.Dup = 0.01, 0.005
	chaotic.recordFaults.Reorder, chaotic.recordFaults.Truncate = 0.002, 0.003
	chaotic.recordFaults.Seed, chaotic.recordFaults.CountLoss = 9, true
	for _, c := range []struct {
		name string
		cfg  genConfig
		want string
	}{
		{"native", gen(10*time.Second, 2000, 3, 64, 7, false, false), "9c61e2a8ffa6bdbb8ff8889eef97428079246c0cbd1f6b2c6789c595b4cecc49"},
		{"pcap.gz", gen(5*time.Second, 1500, 2, 32, 3, true, true), "c7108c6831318675d3ca22bbc6be92dda4f2828cbe9cce1699bd48c1d20f6535"},
		{"record faults", chaotic, "4aa0e9c74f16707806a6155a0cc1533a56f9d4df104c921455c2d3e0ce268218"},
	} {
		path := filepath.Join(t.TempDir(), "t")
		if err := run(path, c.cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.want {
			t.Errorf("%s: SHA-256 %s, want %s", c.name, got, c.want)
		}
	}
}
