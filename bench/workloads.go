package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"loopscope/internal/obs"
	"loopscope/internal/obs/provenance"
)

// The three inputs. Sizes fit a 2-core shared box: one repetition of
// any workload takes 0.7–4 s, so a 10 s run holds 3–13 of them.
var (
	// sparseSpec is the paper's Table I regime: looped share ≤ 0.1 %.
	// Four loops of sixteen packets is what keeps it there at this
	// size; twelve would need three times the records.
	sparseSpec = traceSpec{Kind: "sparse", Prefixes: 256, Background: 1_000_000,
		Loops: 4, PerLoop: 16, Deltas: []int{6, 8}, RevMinUs: 300, RevMaxUs: 600}
	// stormSpec puts two fifths of the records inside loops: hundreds
	// of loops reusing the popular prefixes in disjoint slots, 3 s
	// apart so a 2 s merge window keeps them distinct.
	stormSpec = traceSpec{Kind: "loopstorm", Prefixes: 4096, Background: 330_000,
		Loops: 300, PerLoop: 20, Deltas: []int{2, 2, 2, 3, 3, 4, 6}, RevMinUs: 300, RevMaxUs: 800,
		Reuse: true, Gap: 3 * time.Second}
	timelineSpec = fibSpec{Routers: 1000, Prefixes: 4000, Snapshots: 16}
)

const stormMergeWindow = 2 * time.Second

// probeScale shrinks stormSpec and timelineSpec into the probe set.
const probeScale = 0.25

// setupReps is how many timed generations of its input a run makes;
// setup_s is their median. Five, so that one slow write moves neither
// the median nor, by more than half its excess, a quartile.
const setupReps = 5

// workload is one named way of driving the system end to end.
type workload struct {
	Name string
	Why  string
	// Trace or FIB is the input; exactly one is set.
	Trace *traceSpec
	FIB   *fibSpec
	// Mode is how the input is consumed: "json" (loopdetect -json with
	// Workers shards), "stream" (loopdetect -stream), "fleet"
	// (loopscoped into loopscope-agg) or "fibscan".
	Mode        string
	Workers     int
	MergeWindow time.Duration
	// Sequential marks workloads whose stages run one after another on
	// one goroutine, where span self-times must add up to the wall.
	Sequential bool
}

var workloads = []workload{
	{Name: "offline_sparse", Trace: &sparseSpec, Mode: "json", Workers: 1, Sequential: true,
		Why: "almost every record is a never-replicated singleton: native read and the detector's first-observation path do nearly all the work"},
	{Name: "offline_loopstorm", Trace: &stormSpec, Mode: "json", Workers: 1, MergeWindow: stormMergeWindow, Sequential: true,
		Why: "two fifths of the records are replicas: long streams, subnet validation, merging and analysis dominate, so a tax on the second observation shows"},
	{Name: "offline_parallel", Trace: &sparseSpec, Mode: "json", Workers: 2,
		Why: "the default user path on the sparse file: read, then shard hand-off and reduce, so reader and hand-off gains show more than per-shard ones"},
	{Name: "stream_sparse", Trace: &sparseSpec, Mode: "stream", Sequential: true,
		Why: "the bounded-memory detector on the sparse file: what unifying the two state machines must hold or improve, with the lowest RSS"},
	{Name: "fleet_loopstorm", Trace: &stormSpec, Mode: "fleet", MergeWindow: stormMergeWindow,
		Why: "the only path through tail reader, session, journal, webhook, analytics, provenance and the aggregator; offline workloads bypass all of it"},
	{Name: "fibscan_timeline", FIB: &timelineSpec, Mode: "fibscan", Sequential: true,
		Why: "packet-free tier: JSON decode, atom sweep and walk over snapshots that share almost all work, a quarter of them unchanged heartbeats"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what the command line fixes for a run.
type runConfig struct {
	Seed    uint64
	Scale   float64
	Seconds float64
}

// inputs is a workload's generated input.
type inputs struct {
	Trace *traceInput
	FIB   *fibInput
}

func (in inputs) primary() input {
	if in.Trace != nil {
		return in.Trace.input
	}
	return in.FIB.input
}

// generate writes the workload's input for this seed and scale and
// reports how long the generator took.
func (w workload) generate(e env, cfg runConfig) (inputs, time.Duration, error) {
	dir := filepath.Join(e.Out, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return inputs{}, 0, err
	}
	if w.Trace != nil {
		spec := w.Trace.scaled(cfg.Scale)
		reply, took, err := generate(genRequest{Trace: &spec, Seed: cfg.Seed,
			Path: filepath.Join(dir, fmt.Sprintf("%s_seed%d.lspt", spec.Kind, cfg.Seed))})
		if err != nil {
			return inputs{}, 0, err
		}
		reply.Trace.MergeWindow = w.MergeWindow
		return inputs{Trace: reply.Trace}, took, nil
	}
	spec := w.FIB.scaled(cfg.Scale)
	reply, took, err := generate(genRequest{FIB: &spec, Seed: cfg.Seed,
		Path: filepath.Join(dir, fmt.Sprintf("timeline_seed%d.json", cfg.Seed))})
	return inputs{FIB: reply.FIB}, took, err
}

// generateProbes writes the probe set for a traced run.
func generateProbes(e env, cfg runConfig) (probeSet, error) {
	dir := filepath.Join(e.Out, "inputs")
	storm := stormSpec.scaled(cfg.Scale * probeScale)
	tr, _, err := generate(genRequest{Trace: &storm, Seed: cfg.Seed,
		Path: filepath.Join(dir, fmt.Sprintf("probe_seed%d.lspt", cfg.Seed))})
	if err != nil {
		return probeSet{}, err
	}
	tr.Trace.MergeWindow = stormMergeWindow
	timeline := timelineSpec.scaled(cfg.Scale * probeScale)
	fib, _, err := generate(genRequest{FIB: &timeline, Seed: cfg.Seed,
		Path: filepath.Join(dir, fmt.Sprintf("probe_timeline_seed%d.json", cfg.Seed))})
	return probeSet{Trace: tr.Trace, FIB: fib.FIB}, err
}

// detectArgs is the loopdetect command line of a "json" or "stream"
// workload.
func (w workload) detectArgs(path string) []string {
	args := []string{"-workers", strconv.Itoa(w.Workers), "-json"}
	if w.Mode == "stream" {
		args = []string{"-stream"}
	}
	if w.MergeWindow > 0 {
		args = append(args, "-merge-window", w.MergeWindow.String())
	}
	return append(args, path)
}

// reference is the untimed first read: it warms the page cache and
// fixes what every timed repetition must reproduce. For trace
// workloads that is `loopdetect -workers 1 -json`, checked against the
// scripted loops; for the timeline, one checked fibscan run.
func (w workload) reference(ctx context.Context, e env, in inputs, o *ops) ([]loopRow, error) {
	if w.Trace != nil {
		w.Mode, w.Workers = "json", 1
	}
	r, ok := w.rep(ctx, e, in, nil, o)
	if !ok {
		return nil, fmt.Errorf("reference run failed: %v", o.Notes)
	}
	return r.Rows, nil
}

// repetition is what one run of the workload measured and found.
type repetition struct {
	Wall   time.Duration // exec to exit of the record-reading process
	CPU    time.Duration // all child processes
	RSSMiB float64       // the record-reading process
	Rows   []loopRow     // loops reported (trace workloads)
	Fleet  *fleetStats   // fleet workload only
}

// rep runs the workload once end to end and checks its output, against
// ground truth and, when ref is given, against the reference loop set;
// the repetition counts only if every check passed.
func (w workload) rep(ctx context.Context, e env, in inputs, ref []loopRow, o *ops) (repetition, bool) {
	failedBefore := o.Failed
	var r repetition
	switch w.Mode {
	case "fibscan":
		st, err := runTimed(ctx, e.bin("fibscan"), in.FIB.Path)
		if !o.check(err == nil, "%v", err) {
			return r, false
		}
		checkFibscan(o, parseFibscan(st.Stdout), in.FIB.Looped)
		r = repetition{Wall: st.Wall, CPU: st.CPU, RSSMiB: st.RSSMiB}
	case "fleet":
		fs, err := fleetRun(ctx, e, filepath.Join(e.Out, "fleet"), in.Trace.Path, w.MergeWindow)
		if !o.check(err == nil, "%v", err) {
			return r, false
		}
		checkFleet(o, fs, ref)
		checkTruth(o, fs.Journal, in.Trace.Loops)
		r = repetition{Wall: fs.Daemon.Wall - fleetExitIdle, CPU: fs.Daemon.CPU + fs.AggCPU,
			RSSMiB: fs.Daemon.RSSMiB, Rows: fs.Journal, Fleet: fs}
	default:
		st, err := runTimed(ctx, e.bin("loopdetect"), w.detectArgs(in.Trace.Path)...)
		if !o.check(err == nil, "%v", err) {
			return r, false
		}
		parse, coarse := parseDetectJSON, false
		if w.Mode == "stream" {
			parse, coarse = parseDetectStream, true
		}
		packets, rows, err := parse(st.Stdout)
		if !o.check(err == nil, "%v", err) {
			return r, false
		}
		o.check(packets == in.Trace.Records, "report counts %d packets, file holds %d", packets, in.Trace.Records)
		if ref != nil {
			o.check(digest(rows, coarse) == digest(ref, coarse), "loop set differs from the sequential reference")
		}
		checkTruth(o, rows, in.Trace.Loops)
		r = repetition{Wall: st.Wall, CPU: st.CPU, RSSMiB: st.RSSMiB, Rows: rows}
	}
	return r, o.Failed == failedBefore
}

// workloadResult is one workload's share of the result document.
type workloadResult struct {
	Name      string            `json:"name"`
	Inputs    []input           `json:"inputs"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

func (r *workloadResult) absorb(o ops) {
	r.Attempted, r.Failed, r.Failures = o.Attempted, o.Failed, o.Notes
}

// setup generates the input once untimed (the first run of the
// generator is reliably a third slower than the rest: cold binary, page
// cache still growing) and then timed times more, checking that the
// same seed gives the same bytes; it returns the generation times.
func (w workload) setup(e env, cfg runConfig, timed int, o *ops) (inputs, []float64, error) {
	in, _, err := w.generate(e, cfg)
	if err != nil {
		return inputs{}, nil, err
	}
	var times []float64
	for i := 0; i < timed; i++ {
		again, took, err := w.generate(e, cfg)
		if err != nil {
			return inputs{}, nil, err
		}
		times = append(times, took.Seconds())
		o.check(again.primary().SHA256 == in.primary().SHA256, "seed %d generated different bytes the second time", cfg.Seed)
	}
	return in, times, nil
}

// runUntraced measures the end-to-end metrics: repetitions of the real
// binaries for cfg.Seconds, tracing off.
func runUntraced(ctx context.Context, e env, w workload, cfg runConfig) (*workloadResult, error) {
	var o ops
	in, setupTimes, err := w.setup(e, cfg, setupReps, &o)
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(ctx, e, in, &o)
	if err != nil {
		return nil, err
	}
	records := float64(in.primary().Records)
	values := map[string][]float64{"setup_s": setupTimes}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < cfg.Seconds; n++ {
		r, ok := w.rep(ctx, e, in, ref, &o)
		if !ok {
			continue
		}
		values["records_per_s"] = append(values["records_per_s"], records/r.Wall.Seconds())
		values["cpu_s_per_mrecord"] = append(values["cpu_s_per_mrecord"], r.CPU.Seconds()/records*1e6)
		values["peak_rss_mb"] = append(values["peak_rss_mb"], r.RSSMiB)
		if r.Fleet != nil {
			values["detect_cluster_ms_p50"] = append(values["detect_cluster_ms_p50"], r.Fleet.P50Ms[provenance.SegDetectCluster])
		}
		if in.FIB != nil {
			values["snapshots_per_s"] = append(values["snapshots_per_s"], float64(in.FIB.Snapshots)/r.Wall.Seconds())
		}
	}
	// Shrunken inputs make children as small as the harness; their RSS
	// readings mean nothing, like the rest of a -scale run's numbers.
	if rss := values["peak_rss_mb"]; len(rss) > 0 && cfg.Scale == 1 {
		floor, lowest := rssFloor(ctx, e), summarize("MiB", rss).Min
		o.check(lowest > 1.1*floor, "peak RSS %.1f MiB is at the harness's own floor of %.1f MiB: not the child's", lowest, floor)
	}
	res := &workloadResult{Name: w.Name, Inputs: []input{in.primary()}, Metrics: map[string]sample{}}
	for _, m := range endToEnd {
		if m.appliesTo(w.Name) {
			o.check(len(values[m.Name]) > 0, "no successful repetition to report %s from", m.Name)
			res.Metrics[m.Name] = summarize(m.Unit, values[m.Name])
		}
	}
	res.absorb(o)
	return res, nil
}

// runTraced produces the per-layer metrics: one run of the real
// binaries for the reference output and the untraced wall, then the
// same pipeline in process with a span around every layer call, then
// probes of the layers that pipeline does not cross.
func runTraced(ctx context.Context, e env, w workload, cfg runConfig, buildTime time.Duration) (*workloadResult, error) {
	var o ops
	in, _, err := w.setup(e, cfg, 0, &o)
	if err != nil {
		return nil, err
	}
	probes, err := generateProbes(e, cfg)
	if err != nil {
		return nil, err
	}
	ref, err := w.reference(ctx, e, in, &o)
	if err != nil {
		return nil, err
	}
	untraced, ok := w.rep(ctx, e, in, ref, &o)
	if !ok {
		return nil, fmt.Errorf("%s: untraced repetition failed: %v", w.Name, o.Notes)
	}

	t := &tracer{rec: newRecorder(w.Name), dir: filepath.Join(e.Out, "probe"),
		set: map[string]sample{}, reg: obs.NewRegistry()}
	// Journals deduplicate by event ID on open: a file left by an earlier
	// run of the same seed would turn every publish into a no-op.
	if err := os.RemoveAll(t.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return nil, err
	}
	t.put("setup.build_s", "s", buildTime.Seconds(), 1)

	// A fresh process starts with a small heap, collects often while it
	// grows, and faults every page in. Collecting and handing the
	// generator's memory back to the OS puts the in-process pipeline on
	// the same footing.
	debug.FreeOSMemory()
	t.rec.pipeline = true
	var found detected
	switch w.Mode {
	case "json":
		found = t.pipelineBatch(in.Trace.Path, w.Workers, w.MergeWindow)
	case "stream":
		found = t.pipelineStream(in.Trace.Path, w.MergeWindow)
	case "fleet":
		found = t.pipelineFleet(ctx, in.Trace.Path, in.Trace.Records, w.MergeWindow)
	case "fibscan":
		checkFibscan(&o, t.pipelineFIB(in.FIB.Path), in.FIB.Looped)
	}
	t.rec.pipeline = false
	if t.err != nil {
		return nil, fmt.Errorf("%s: traced pipeline: %w", w.Name, t.err)
	}
	if in.Trace != nil {
		o.check(found.Total == in.Trace.Records, "traced pipeline saw %d of %d records", found.Total, in.Trace.Records)
		o.check(digest(found.rows(), false) == digest(ref, false), "traced pipeline's loop set differs from the binary's")
	}
	coverage := float64(t.rec.pipelineNs()) / float64(untraced.Wall)
	t.put("layers.coverage", "ratio", coverage, 1)
	if w.Sequential && (coverage < 0.85 || coverage > 1.15) {
		fmt.Fprintf(os.Stderr, "bench: warning: %s layers.coverage %.2f outside 0.85–1.15: layers missing or double-counted\n", w.Name, coverage)
	}

	t.probe(ctx, probes)
	if t.err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.Name, t.err)
	}

	// The pipeline-latency decomposition comes from the aggregator's
	// own provenance sketches after a run of the real binaries: this
	// workload's if it is the fleet one, else one over the probe
	// capture.
	fleet := untraced.Fleet
	if fleet == nil {
		fleet, err = fleetRun(ctx, e, filepath.Join(e.Out, "fleet"), probes.Trace.Path, stormMergeWindow)
		if err != nil {
			return nil, err
		}
		o.count(len(fleet.Journal), len(fleet.Journal)-int(fleet.Observations), "probe fleet run: journaled events never clustered")
	}
	events := len(fleet.Journal)
	for _, seg := range []string{provenance.SegDetectPublish, provenance.SegPublishSend, provenance.SegSendIngest, provenance.SegDetectCluster} {
		t.put("provenance."+seg+"_ms_p50", "ms", fleet.P50Ms[seg], events)
	}
	t.put("provenance.detect_cluster_ms_p99", "ms", fleet.P99Ms[provenance.SegDetectCluster], events)
	t.put("agg.dup_ratio", "ratio", float64(fleet.Duplicates)/float64(max(1, fleet.Observations+fleet.Duplicates)), events)

	// Regime: the workload's own capture, or the probe capture for the
	// packet-free workload.
	if in.Trace == nil {
		found = detected{Total: probes.Trace.Records, Looped: probes.Trace.LoopedRecords}
		t.put("core.loops", "count", float64(len(probes.Trace.Loops)), 1)
	} else {
		t.put("core.loops", "count", float64(len(found.Loops)), 1)
	}
	t.put("core.looped_share", "ratio", float64(found.Looped)/float64(found.Total), found.Total)
	changed, snaps := probes.FIB.Changed, probes.FIB.Snapshots
	if in.FIB != nil {
		changed, snaps = in.FIB.Changed, in.FIB.Snapshots
	}
	t.put("fibscan.timeline_reuse_ratio", "ratio", float64(snaps-changed)/float64(snaps), snaps)

	t.rec.derive(perLayer, t.set)
	res := &workloadResult{Name: w.Name, Inputs: []input{in.primary(), probes.Trace.input, probes.FIB.input}, Metrics: t.set}
	for _, m := range perLayer {
		_, ok := t.set[m.Name]
		o.check(ok, "layer metric %s was not measured", m.Name)
	}
	res.absorb(o)
	return res, t.rec.write(filepath.Join(e.Out, "spans_"+w.Name+".json"))
}
