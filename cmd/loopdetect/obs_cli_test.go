package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"loopscope/internal/core"
	"loopscope/internal/obs"
)

// withRegistry installs a live metrics registry (as -json/-metrics-addr
// would) and restores the uninstrumented default when the test ends.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	reg = r
	t.Cleanup(func() { reg = nil })
	return r
}

// TestJSONRunSection: the -json document must carry a run section with
// the worker count, wall time and the pipeline stage timings.
func TestJSONRunSection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.lspt")
	n := writeTestTrace(t, path, false, false)
	r := withRegistry(t)
	workerCount = 4
	defer func() { workerCount = 0 }()

	outPath := filepath.Join(dir, "out.json")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = outFile
	err = runJSON(path, core.DefaultConfig())
	os.Stdout = old
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var res jsonResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Run == nil {
		t.Fatal("run section missing from instrumented -json output")
	}
	if res.Run.Workers != 4 {
		t.Errorf("run.workers = %d, want 4", res.Run.Workers)
	}
	if res.Run.WallNs <= 0 {
		t.Errorf("run.wallNs = %d, want > 0", res.Run.WallNs)
	}
	stages := map[string]jsonStageTiming{}
	for _, st := range res.Run.Stages {
		stages[st.Stage] = st
	}
	for _, want := range []string{"open", "ingest", "reduce", "finish", "analyze"} {
		st, ok := stages[want]
		if !ok {
			t.Errorf("run.stages missing %q (got %v)", want, res.Run.Stages)
			continue
		}
		if st.Runs < 1 {
			t.Errorf("stage %q ran %d times, want >= 1", want, st.Runs)
		}
	}

	// The ingest tap must have metered every record of the trace.
	snap := r.Snapshot()
	if got := snap.Counters[obs.MetricTraceRecords]; got != int64(n) {
		t.Errorf("%s = %d, want %d", obs.MetricTraceRecords, got, n)
	}
}

// TestInstrumentedDetectIdentical: turning instrumentation on must not
// change the analysis — the Result is deep-equal to the uninstrumented
// run's for both the sequential and parallel engines.
func TestInstrumentedDetectIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.lspt")
	writeTestTrace(t, path, false, false)
	cfg := core.DefaultConfig()
	for _, workers := range []int{1, 4} {
		workerCount = workers
		reg = nil
		want, err := scan(path, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		withRegistry(t)
		got, err := scan(path, cfg, true)
		reg = nil
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: instrumented result differs from uninstrumented", workers)
		}
	}
	workerCount = 0
}
