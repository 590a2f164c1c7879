// Command bench is loopscope's benchmark: it generates seeded inputs,
// runs six named workloads end to end by exec'ing the real binaries
// (capture file in → report out, capture file in → fleet cluster out),
// checks every output, and prints every metric by name with its unit.
// With -trace 1 it instead recreates each pipeline in process with a
// span around every call into a layer and reports per-layer numbers.
// See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./bench -seed 1                         # every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1                # every workload, per-layer metrics
//	go run ./bench -workload offline_sparse -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare a.json b.json          # judge b against a
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// result is the document one invocation writes and -compare reads.
type result struct {
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Seconds float64 `json:"seconds"`
	Traced  bool    `json:"traced"`
	// Comparable is false for -scale runs: their numbers describe
	// other inputs and must not be set against full-size ones.
	Comparable bool             `json:"comparable"`
	Host       host             `json:"host"`
	Workloads  []workloadResult `json:"workloads"`
}

// host is the fingerprint of the machine the numbers came from.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() host {
	h := host{NumCPU: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

func main() {
	if req := os.Getenv(generateEnv); req != "" {
		os.Exit(generateMain(req))
	}
	var (
		name    = flag.String("workload", "", "run only this workload (default: all six)")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 12, "how long each workload's timed repetitions run")
		traceOn = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		scale   = flag.Float64("scale", 1, "shrink every input by this factor; results are marked non-comparable")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *scale <= 0 || *scale > 1 || *seconds < 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "cmd", "loopdetect"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (cmd/loopdetect not found):", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the context, which kills any child the
	// harness is waiting on, so nothing outlives it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{
		Workload: *name, Traced: *traced || *traceOn == 1,
		Config: runConfig{Seed: *seed, Scale: *scale, Seconds: *seconds},
	}
	res, err := run(ctx, env{Root: root, Out: filepath.Join(root, "bench", "out")}, opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, w := range res.Workloads {
		if w.Failed > 0 {
			os.Exit(1)
		}
	}
}

// options selects what run does.
type options struct {
	Workload string // empty: every workload
	Traced   bool
	Config   runConfig
}

// run builds the binaries, runs the selected workloads, prints each
// one's metrics followed by its one-line JSON summary, and writes the
// result document under e.Out.
func run(ctx context.Context, e env, opts options, out io.Writer) (*result, error) {
	selected := workloads
	if opts.Workload != "" {
		w, ok := findWorkload(opts.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", opts.Workload)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(e.Out, 0o755); err != nil {
		return nil, err
	}
	buildTime, err := e.build()
	if err != nil {
		return nil, err
	}
	// Inputs are a function of the seed and are described in the result;
	// keeping hundreds of megabytes per seed would fill the checkout, and
	// a file deleted within seconds is never written back to disk while
	// something is being timed.
	defer func() {
		for _, dir := range []string{"inputs", "probe", "fleet"} {
			os.RemoveAll(filepath.Join(e.Out, dir))
		}
	}()
	cfg := opts.Config
	res := &result{Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, Traced: opts.Traced,
		Comparable: cfg.Scale == 1, Host: fingerprint()}
	for _, w := range selected {
		var wr *workloadResult
		if opts.Traced {
			wr, err = runTraced(ctx, e, w, cfg, buildTime)
		} else {
			wr, err = runUntraced(ctx, e, w, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Workloads = append(res.Workloads, *wr)
		printWorkload(out, res, wr)
	}
	name := fmt.Sprintf("result_seed%d", cfg.Seed)
	if opts.Workload != "" {
		name += "_" + opts.Workload
	}
	if opts.Traced {
		name += "_traced"
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(e.Out, name+".json"), data, 0o644)
}

// reported lists, in table order, the metrics a run of this kind
// reports for a workload.
func reported(tracedRun bool, workload string) []metricDef {
	if tracedRun {
		return perLayer
	}
	var defs []metricDef
	for _, m := range endToEnd {
		if m.appliesTo(workload) {
			defs = append(defs, m)
		}
	}
	return defs
}

// summaryLine is the one-line JSON object the benchmark contract asks
// for as the last line of a workload's output. It carries the metrics
// BENCHMARK.json lists: every per-layer metric, or the end-to-end ones
// that apply to every workload.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printWorkload prints the human table and then the summary line.
func printWorkload(out io.Writer, res *result, wr *workloadResult) {
	note := ""
	if !res.Comparable {
		note = fmt.Sprintf("  NOT COMPARABLE (-scale %g)", res.Scale)
	}
	fmt.Fprintf(out, "workload %s  seed %d  ops_attempted %d  ops_failed %d%s\n", wr.Name, res.Seed, wr.Attempted, wr.Failed, note)
	for _, f := range wr.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	for _, in := range wr.Inputs {
		fmt.Fprintf(out, "  input %s  %d B  %d records  sha256 %s\n", in.Path, in.Bytes, in.Records, in.SHA256)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	if res.Traced {
		fmt.Fprintln(tw, "  metric\tunit\tvalue\twork")
	} else {
		fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\tmin\tmax\tn")
	}
	line := summaryLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range reported(res.Traced, wr.Name) {
		s, ok := wr.Metrics[m.Name]
		if !ok {
			continue
		}
		if res.Traced {
			// One value per layer metric; n is the work it was averaged
			// over (records, events, snapshots).
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%d\n", m.Name, m.Unit, s.Median, s.N)
		} else {
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		if len(m.Only) == 0 {
			line.Metrics[m.Name] = metricValue{Value: s.Median, Unit: m.Unit}
		}
	}
	tw.Flush()
	data, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", data)
}
