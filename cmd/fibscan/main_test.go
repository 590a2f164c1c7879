package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loopscope/internal/core"
	"loopscope/internal/fibscan"
	"loopscope/internal/scenario"
)

// writeSnaps writes a two-capture snapshot file with injected loops.
func writeSnaps(t *testing.T) (string, []string) {
	t.Helper()
	snap, looped := fibscan.Synthetic(10, 50, 3)
	s2 := snap
	s2.TakenNs = int64(100 * time.Millisecond)
	f := &fibscan.SnapshotFile{
		Network:   "cli-test",
		Snapshots: []fibscan.Snapshot{snap, s2},
	}
	path := filepath.Join(t.TempDir(), "snaps.json")
	if err := fibscan.WriteFile(path, f); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	prefixes := make([]string, 0, len(looped))
	for _, p := range looped {
		prefixes = append(prefixes, p.String())
	}
	return path, prefixes
}

// writeLoops writes a minimal loopdetect -json style report.
func writeLoops(t *testing.T, dir string, rows []map[string]any) string {
	t.Helper()
	doc := map[string]any{"link": "cli-test", "loops": rows}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "loops.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunText(t *testing.T) {
	path, prefixes := writeSnaps(t)
	var buf bytes.Buffer
	if err := run(&buf, path, "", false, time.Second, 2*time.Second, "none"); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "network: cli-test") || !strings.Contains(out, "snapshots: 2") {
		t.Errorf("missing header:\n%s", out)
	}
	for _, p := range prefixes {
		if !strings.Contains(out, p) {
			t.Errorf("looped prefix %s absent from output", p)
		}
	}
	if !strings.Contains(out, "table loops:") {
		t.Errorf("missing collated section:\n%s", out)
	}
}

func TestRunJSONWithDiff(t *testing.T) {
	path, prefixes := writeSnaps(t)
	loopPath := writeLoops(t, filepath.Dir(path), []map[string]any{
		{"prefix": prefixes[0], "startNs": 0, "endNs": int64(50 * time.Millisecond)},
		{"prefix": "9.9.9.0/24", "startNs": 0, "endNs": 1000}, // trace-only
	})
	var buf bytes.Buffer
	if err := run(&buf, path, loopPath, true, time.Second, 2*time.Second, "none"); err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc struct {
		Network   string `json:"network"`
		Snapshots int    `json:"snapshots"`
		Reports   []struct {
			Cycles []struct {
				Routers []string `json:"routers"`
			} `json:"cycles"`
		} `json:"reports"`
		TableLoops []json.RawMessage `json:"tableLoops"`
		Diff       struct {
			Confirmed []json.RawMessage `json:"confirmed"`
			TableOnly []json.RawMessage `json:"tableOnly"`
			TraceOnly []struct {
				Prefix string `json:"prefix"`
			} `json:"traceOnly"`
		} `json:"diff"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Network != "cli-test" || doc.Snapshots != 2 || len(doc.Reports) != 2 {
		t.Errorf("header: %+v", doc)
	}
	if len(doc.Reports[0].Cycles) == 0 {
		t.Errorf("no cycles in JSON report")
	}
	if len(doc.Diff.Confirmed) != 1 {
		t.Errorf("confirmed = %d, want 1", len(doc.Diff.Confirmed))
	}
	if len(doc.Diff.TraceOnly) != 1 || doc.Diff.TraceOnly[0].Prefix != "9.9.9.0/24" {
		t.Errorf("traceOnly = %+v", doc.Diff.TraceOnly)
	}
	// All injected loops bounce between the same two hubs, so they
	// collate into the one confirmed table loop — nothing is left over.
	if len(doc.Diff.TableOnly) != 0 {
		t.Errorf("tableOnly = %d, want 0 (single membership merges)", len(doc.Diff.TableOnly))
	}
}

func TestRunDeterministic(t *testing.T) {
	path, prefixes := writeSnaps(t)
	loopPath := writeLoops(t, filepath.Dir(path), []map[string]any{
		{"prefix": prefixes[0], "startNs": 0, "endNs": int64(time.Millisecond)},
	})
	var a, b bytes.Buffer
	if err := run(&a, path, loopPath, true, time.Second, 2*time.Second, "none"); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, path, loopPath, true, time.Second, 2*time.Second, "none"); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("reruns produced different output")
	}
}

func TestRunFailOn(t *testing.T) {
	path, _ := writeSnaps(t)
	loopPath := writeLoops(t, filepath.Dir(path), []map[string]any{
		{"prefix": "9.9.9.0/24", "startNs": 0, "endNs": 1000},
	})
	var buf bytes.Buffer
	if err := run(&buf, path, loopPath, false, time.Second, 2*time.Second, "trace-only"); err != errFailOn {
		t.Errorf("fail-on trace-only: err = %v, want errFailOn", err)
	}
	// The injected table loop is unconfirmed by that trace report, so
	// the table-only bucket gates too.
	if err := run(&buf, path, loopPath, false, time.Second, 2*time.Second, "table-only"); err != errFailOn {
		t.Errorf("fail-on table-only: err = %v, want errFailOn", err)
	}
	// Buckets only gate when -loops is given.
	if err := run(&buf, path, "", false, time.Second, 2*time.Second, "trace-only"); err != nil {
		t.Errorf("fail-on without -loops errored: %v", err)
	}
	if err := run(&buf, path, "", false, time.Second, 2*time.Second, "bogus"); err == nil {
		t.Errorf("bogus -fail-on accepted")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 99, "snapshots": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, bad, "", false, time.Second, 2*time.Second, "none"); err == nil {
		t.Errorf("bad snapshot file accepted")
	}
	path, _ := writeSnaps(t)
	badLoops := filepath.Join(dir, "loops.json")
	if err := os.WriteFile(badLoops, []byte(`{"loops": [{"prefix": "not-a-prefix"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, path, badLoops, false, time.Second, 2*time.Second, "none"); err == nil {
		t.Errorf("bad loops file accepted")
	}
}

// update rewrites testdata/golden from the current code. The committed
// files were printed by the last build that decoded the whole file and
// rescanned every changed snapshot from scratch, which is what makes
// TestGoldenOutputs an equivalence proof; regenerate them only for a
// change that means to alter the output.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSynthetic writes a timeline of Synthetic captures whose loop
// count comes and goes, with a heartbeat after every change, and a
// trace report confirming one looped prefix and inventing another. A
// router's revision moves when its table does: the build that printed
// the golden files trusted it.
func goldenSynthetic(t *testing.T, dir string) (snaps, loops string) {
	t.Helper()
	f := &fibscan.SnapshotFile{Network: "golden-synthetic"}
	var confirmed string
	for i, k := range []int{3, 3, 7, 7, 0, 3} {
		snap, looped := fibscan.Synthetic(40, 200, k)
		snap.TakenNs = int64(i) * int64(time.Second)
		if i == 0 {
			confirmed = looped[0].String()
		} else {
			for r, prev := range f.Snapshots[i-1].Routers {
				now := &snap.Routers[r]
				now.Revision = prev.Revision
				if !reflect.DeepEqual(now.Routes, prev.Routes) || !reflect.DeepEqual(now.Locals, prev.Locals) {
					now.Revision++
				}
			}
		}
		f.Snapshots = append(f.Snapshots, snap)
	}
	snaps = filepath.Join(dir, "synthetic.json")
	if err := fibscan.WriteFile(snaps, f); err != nil {
		t.Fatal(err)
	}
	loops = writeLoops(t, dir, []map[string]any{
		{"prefix": confirmed, "startNs": int64(500 * time.Millisecond), "endNs": int64(1500 * time.Millisecond)},
		{"prefix": "9.9.9.0/24", "startNs": 0, "endNs": 1000},
	})
	return snaps, loops
}

// goldenBackbone reproduces the smoke scenario's inputs in process:
// backbonesim -only backbone3 -scale 0.25 -fib-snapshots -fib-every
// 25ms, and the loops the trace detector finds in its packets.
func goldenBackbone(t *testing.T, dir string) (snaps, loops string) {
	t.Helper()
	var cv *scenario.CrossVal
	for _, spec := range scenario.PaperBackbones() {
		if spec.Name == "backbone3" {
			spec.Duration = time.Duration(float64(spec.Duration) * 0.25)
			spec.PacketsPerSecond *= 0.25
			cv = scenario.BuildCrossVal(spec, 25*time.Millisecond)
		}
	}
	cv.Run()
	snaps = filepath.Join(dir, "backbone3_fibs.json")
	if err := fibscan.WriteFile(snaps, cv.SnapshotFile()); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	for _, l := range core.DetectRecords(cv.Records(), core.DefaultConfig()).Loops {
		rows = append(rows, map[string]any{"prefix": l.Prefix.String(), "startNs": int64(l.Start), "endNs": int64(l.End)})
	}
	if len(rows) == 0 {
		t.Fatal("the trace detector found no loop in backbone3")
	}
	return snaps, writeLoops(t, dir, rows)
}

// TestGoldenOutputs compares the text, -json and -json -loops output on
// a synthetic timeline and on the smoke scenario, byte for byte, with
// what the whole-file reader and per-snapshot rescan printed.
func TestGoldenOutputs(t *testing.T) {
	inputs := map[string]func(*testing.T, string) (string, string){"synthetic": goldenSynthetic}
	if !testing.Short() {
		inputs["backbone3"] = goldenBackbone
	}
	for name, generate := range inputs {
		snaps, loops := generate(t, t.TempDir())
		for mode, args := range map[string]struct {
			loops string
			json  bool
		}{"text": {"", false}, "json": {"", true}, "json-loops": {loops, true}} {
			var buf bytes.Buffer
			if err := run(&buf, snaps, args.loops, args.json, time.Second, 2*time.Second, "none"); err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			// As in cmd/loopdetect, an output over 16 KiB is committed
			// as its SHA-256.
			path, got := filepath.Join("testdata", "golden", name+"."+mode), buf.Bytes()
			if len(got) > 16<<10 {
				path, got = path+".sha256", []byte(fmt.Sprintf("%x\n", sha256.Sum256(got)))
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: output (%d bytes) differs from %s", name, buf.Len(), path)
			}
		}
	}
}
