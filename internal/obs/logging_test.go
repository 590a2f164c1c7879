package obs

import (
	"encoding/json"
	"flag"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLogLevel(t *testing.T) {
	cases := []struct {
		in   string
		want slog.Level
		err  bool
	}{
		{"debug", slog.LevelDebug, false},
		{"info", slog.LevelInfo, false},
		{"", slog.LevelInfo, false},
		{"WARN", slog.LevelWarn, false},
		{"warning", slog.LevelWarn, false},
		{"error", slog.LevelError, false},
		{"verbose", 0, true},
	}
	for _, c := range cases {
		got, err := parseLogLevel(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseLogLevel(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseLogLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPlainHandlerShape(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(LogOptions{Prefix: "testd", W: &sb, NoTimestamp: true})
	lg.Info("source added", "source", "bb1", "kind", "dir")
	lg.Warn("journal drops", "count", 3)
	lg.Error("spaced value", "msg", "two words")

	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), sb.String())
	}
	if lines[0] != "testd: source added source=bb1 kind=dir" {
		t.Errorf("info line = %q", lines[0])
	}
	if lines[1] != "testd: WARN journal drops count=3" {
		t.Errorf("warn line = %q", lines[1])
	}
	if lines[2] != `testd: ERROR spaced value msg="two words"` {
		t.Errorf("error line = %q", lines[2])
	}
}

func TestPlainHandlerTimestamp(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(LogOptions{Prefix: "d", W: &sb})
	lg.Info("hello")
	line := strings.TrimRight(sb.String(), "\n")
	// d: 2006/01/02 15:04:05 hello
	parts := strings.SplitN(line, " ", 4)
	if len(parts) != 4 || parts[0] != "d:" || parts[3] != "hello" {
		t.Fatalf("line = %q, want prefix + date + time + msg", line)
	}
	if len(parts[1]) != 10 || strings.Count(parts[1], "/") != 2 {
		t.Errorf("date column = %q", parts[1])
	}
	if len(parts[2]) != 8 || strings.Count(parts[2], ":") != 2 {
		t.Errorf("time column = %q", parts[2])
	}
}

func TestJSONFormat(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(LogOptions{Format: "json", W: &sb})
	lg.Info("checkpoint written", "sources", 2)
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	if doc["msg"] != "checkpoint written" || doc["sources"] != float64(2) {
		t.Errorf("doc = %v", doc)
	}
}

func TestLevelGate(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(LogOptions{Level: slog.LevelWarn, W: &sb, NoTimestamp: true})
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	if got := strings.TrimSpace(sb.String()); got != "WARN w" {
		t.Errorf("output = %q, want only the warn line", got)
	}
}

func TestLogMetricsCounting(t *testing.T) {
	reg := NewRegistry()
	lg := NewLogger(LogOptions{W: &strings.Builder{}, Metrics: reg, NoTimestamp: true})
	lg.Info("a")
	lg.Info("b")
	lg.Warn("c")
	lg.Error("d")
	lg.Debug("suppressed") // below level: must not count
	snap := reg.Snapshot()
	want := map[string]int64{
		LabelMetric(MetricLogMessages, "level", "info"):  2,
		LabelMetric(MetricLogMessages, "level", "warn"):  1,
		LabelMetric(MetricLogMessages, "level", "error"): 1,
	}
	for name, n := range want {
		if snap.Counters[name] != n {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], n)
		}
	}
	if _, ok := snap.Counters[LabelMetric(MetricLogMessages, "level", "debug")]; ok {
		t.Error("suppressed debug record was counted")
	}
}

func TestCountingSurvivesWith(t *testing.T) {
	reg := NewRegistry()
	lg := NewLogger(LogOptions{W: &strings.Builder{}, Metrics: reg, NoTimestamp: true})
	lg.With("source", "bb1").WithGroup("sink").Info("derived")
	name := LabelMetric(MetricLogMessages, "level", "info")
	if got := reg.Snapshot().Counters[name]; got != 1 {
		t.Errorf("%s = %d, want 1 (With/WithGroup must keep counting)", name, got)
	}
}

func TestNopLogger(t *testing.T) {
	lg := NopLogger()
	if lg.Enabled(nil, slog.LevelError) {
		t.Error("nop logger claims enabled")
	}
	lg.Error("into the void") // must not panic
}

func TestBindLogFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		lines int    // lines written by one Info and one Warn; 0: the values are rejected
		want  string // substring of those lines
	}{
		{nil, 2, "i\nWARN w\n"},
		{[]string{"-log-level", "warn", "-log-format", "json"}, 1, `"msg":"w"`},
		{[]string{"-log-level", "shout"}, 0, ""},
		{[]string{"-log-format", "xml"}, 0, ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		newLogger := BindLogFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		lg, err := newLogger(LogOptions{W: &sb, NoTimestamp: true})
		if (err != nil) != (tc.lines == 0) {
			t.Errorf("%v: err = %v", tc.args, err)
		}
		if err != nil {
			continue
		}
		lg.Info("i")
		lg.Warn("w")
		if out := sb.String(); strings.Count(out, "\n") != tc.lines || !strings.Contains(out, tc.want) {
			t.Errorf("%v wrote %q, want %d line(s) with %q", tc.args, out, tc.lines, tc.want)
		}
	}
}
