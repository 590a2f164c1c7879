package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain lets the test binary serve as the generator subprocess the
// harness re-execs itself for.
func TestMain(m *testing.M) {
	if req := os.Getenv(generateEnv); req != "" {
		os.Exit(generateMain(req))
	}
	os.Exit(m.Run())
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(wd)
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the
// harness's own tables the same set of names, units and bounds.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q (or their why differs)", i, bf.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}

	check := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s metric %d: file %+v, harness %+v", kind, i, f, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q: bad name or unit %q", kind, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %q: better is %q", kind, d.Name, d.Better)
			}
			switch {
			case bounded && (f.Bound == nil || *f.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s metric %q: bound must be in (0, 0.25] and agree with the harness (%v)", kind, d.Name, d.Bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s metric %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	// The file's contract wants every metric from every workload, so it
	// lists the end-to-end metrics that apply everywhere; the two
	// workload-specific ones are gated by -compare alone.
	var everywhere []metricDef
	for _, m := range endToEnd {
		if m.Bound <= 0 {
			t.Errorf("end-to-end metric %q has no bound", m.Name)
		}
		if len(m.Only) == 0 {
			everywhere = append(everywhere, m)
		}
		for _, w := range m.Only {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("metric %q is restricted to unknown workload %q", m.Name, w)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, everywhere, true)
	check("per_layer", bf.PerLayer, perLayer, false)

	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload and the traced run end to end on
// shrunken inputs: every correctness gate must pass and every metric
// the tables name must come out, each workload's summary line carrying
// exactly the BENCHMARK.json set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four binaries and runs all six workloads twice")
	}
	e := env{Root: repoRoot(t), Out: t.TempDir()}
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := run(context.Background(), e, options{Traced: traced,
			Config: runConfig{Seed: 1, Scale: 0.01, Seconds: 0.2}}, &out)
		if err != nil {
			t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
		}
		if res.Comparable {
			t.Error("a -scale run must be marked non-comparable")
		}
		if len(res.Workloads) != len(workloads) {
			t.Fatalf("traced=%v: %d workloads ran, want %d", traced, len(res.Workloads), len(workloads))
		}
		var lines []summaryLine
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				var sl summaryLine
				if err := json.Unmarshal([]byte(l), &sl); err != nil {
					t.Fatalf("summary line %q: %v", l, err)
				}
				lines = append(lines, sl)
			}
		}
		if len(lines) != len(workloads) {
			t.Fatalf("traced=%v: %d summary lines, want %d", traced, len(lines), len(workloads))
		}
		for i, w := range res.Workloads {
			if w.Failed != 0 || w.Attempted < 1 {
				t.Errorf("traced=%v %s: ops_attempted %d, ops_failed %d: %v", traced, w.Name, w.Attempted, w.Failed, w.Failures)
			}
			want := 0
			for _, m := range reported(traced, w.Name) {
				s, ok := w.Metrics[m.Name]
				if !ok || s.N < 1 || s.Unit != m.Unit {
					t.Errorf("traced=%v %s: metric %s missing, empty or in the wrong unit (%+v)", traced, w.Name, m.Name, s)
				}
				if len(m.Only) == 0 {
					want++
					if v, ok := lines[i].Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("traced=%v %s: summary line lacks %s", traced, w.Name, m.Name)
					}
				}
			}
			if len(lines[i].Metrics) != want {
				t.Errorf("traced=%v %s: summary line has %d metrics, BENCHMARK.json lists %d", traced, w.Name, len(lines[i].Metrics), want)
			}
			if !lines[i].Correct || lines[i].Attempted != w.Attempted || lines[i].Failed != 0 {
				t.Errorf("traced=%v %s: summary line %+v disagrees with the result", traced, w.Name, lines[i])
			}
		}
	}
	if _, err := os.Stat(filepath.Join(e.Out, "spans_fleet_loopstorm.json")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}

// TestGeneratorsDeterministic: the same seed gives byte-identical
// files, another seed different ones.
func TestGeneratorsDeterministic(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string, seed uint64) []string {
		sp, err := genTrace(sparseSpec.scaled(0.01), seed, filepath.Join(dir, name+".sparse"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := genTrace(stormSpec.scaled(0.01), seed, filepath.Join(dir, name+".storm"))
		if err != nil {
			t.Fatal(err)
		}
		fi, err := genFIB(timelineSpec.scaled(0.01), seed, filepath.Join(dir, name+".fib"))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Changed != 12 || len(fi.Looped) != 16 {
			t.Errorf("timeline: %d changed snapshots of %d, want 12 of 16", fi.Changed, len(fi.Looped))
		}
		if st.LoopedRecords*5 < st.Records {
			t.Errorf("loopstorm: looped share %d/%d is under 20%%", st.LoopedRecords, st.Records)
		}
		return []string{sp.SHA256, st.SHA256, fi.SHA256}
	}
	a, b, c := gen("a", 7), gen("b", 7), gen("c", 8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input %d: seed 7 generated different bytes twice", i)
		}
		if a[i] == c[i] {
			t.Errorf("input %d: seeds 7 and 8 generated the same bytes", i)
		}
	}
}

// TestVerdict pins -compare's three outcomes.
func TestVerdict(t *testing.T) {
	m := metricDef{Name: "records_per_s", Better: "higher", Bound: 0.10}
	tight := func(med float64) sample {
		return summarize("1/s", []float64{med * 0.99, med, med * 1.01})
	}
	wide := func(med float64) sample {
		return summarize("1/s", []float64{med * 0.8, med, med * 1.2})
	}
	for _, c := range []struct {
		name      string
		base, cur sample
		want      string
	}{
		{"same", tight(100), tight(99), "ok"},
		{"slower", tight(100), tight(85), "regressed"},
		{"noisy", wide(100), wide(97), "unresolved"},
		{"noisy but every run faster", tight(100), wide(200), "ok"},
	} {
		if _, got := verdict(m, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
