package obs

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelPairRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseExposition validates the text format line by line and returns
// the samples plus the HELP/TYPE headers seen per family.
func parseExposition(t *testing.T, text string) (samples []promSample, types, helps map[string]string) {
	t.Helper()
	types, helps = map[string]string{}, map[string]string{}
	lastHelp := ""
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
			}
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: bad HELP metric name %q", ln+1, name)
			}
			if _, dup := helps[name]; dup {
				t.Errorf("line %d: duplicate HELP for %q", ln+1, name)
			}
			helps[name] = help
			lastHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := fields[0], fields[1]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: bad TYPE metric name %q", ln+1, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE kind %q", ln+1, kind)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			if lastHelp != name {
				t.Errorf("line %d: TYPE %s not immediately preceded by its HELP (last HELP: %q)", ln+1, name, lastHelp)
			}
			types[name] = kind
		case strings.HasPrefix(line, "#"):
			// Other comments are legal; ignore.
		default:
			samples = append(samples, parseSampleLine(t, ln+1, line))
		}
	}
	return samples, types, helps
}

func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			t.Fatalf("line %d: unterminated label body: %q", ln, line)
		}
		for _, pair := range splitLabelPairs(rest[i+1 : j]) {
			if !labelPairRe.MatchString(pair) {
				t.Errorf("line %d: bad label pair %q in %q", ln, pair, line)
				continue
			}
			k, v, _ := strings.Cut(pair, "=")
			s.labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			t.Fatalf("line %d: no value: %q", ln, line)
		}
	}
	if !metricNameRe.MatchString(s.name) {
		t.Errorf("line %d: bad metric name %q", ln, s.name)
	}
	val := strings.TrimSpace(rest)
	if i := strings.IndexByte(val, ' '); i >= 0 {
		val = val[:i] // a trailing timestamp would sit here; we never emit one
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
		t.Errorf("line %d: unparseable value %q: %v", ln, val, err)
	}
	s.value = f
	return s
}

// splitLabelPairs splits a label body on commas outside quotes.
func splitLabelPairs(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// histogramFamily strips a histogram sample suffix, reporting which.
func histogramFamily(name string) (family, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf
		}
	}
	return name, ""
}

// labelKeyWithoutLe renders a sample's labels (minus le) as a stable
// grouping key.
func labelKeyWithoutLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k + "=" + labels[k] + ";")
	}
	return sb.String()
}

// TestPrometheusExpositionValid renders a registry exercising every
// metric shape — plain and labelled counters, gauges, histograms
// (including a labelled histogram, which a previous exporter emitted
// invalidly), and stage timings — and validates the output the way a
// Prometheus scraper would.
func TestPrometheusExpositionValid(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTraceRecords).Add(123)
	r.Counter(ShardMetric(MetricShardRecords, 0)).Add(10)
	r.Counter(ShardMetric(MetricShardRecords, 1)).Add(20)
	r.Counter(LabelMetric(MetricLogMessages, "level", "error")).Inc()
	r.Counter(LabelMetric(MetricProvenanceSkewTotal, "vantage", "bb1")).Inc()
	r.Gauge(MetricEngineWorkers).Set(4)
	r.Gauge(LabelMetric(MetricServeSourceLagBytes, "source", "bb1")).Set(9)
	h := r.Histogram("loopscope_test_fill", []int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	for _, src := range []string{"bb1", "bb2"} {
		lh := r.Histogram(LabelMetric(MetricServeDetectLatencyNs, "source", src), DetectLatencyBounds)
		lh.Observe(2e6)
		lh.Observe(5e9)
	}
	sp := r.StartSpan("ingest")
	sp.End()

	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	samples, types, helps := parseExposition(t, text)
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}

	// Every sample's family must have a TYPE (and therefore HELP).
	for _, s := range samples {
		family := s.name
		if fam, suf := histogramFamily(s.name); suf != "" && types[fam] == "histogram" {
			family = fam
		}
		if _, ok := types[family]; !ok {
			t.Errorf("sample %q has no TYPE header (family %q)", s.line, family)
		}
		if _, ok := helps[family]; !ok {
			t.Errorf("sample %q has no HELP header (family %q)", s.line, family)
		}
	}

	// Histogram shape: per (family, labels-minus-le) series, buckets
	// are cumulative non-decreasing, end at le="+Inf", and the +Inf
	// bucket equals _count.
	type histSeries struct {
		buckets []promSample
		sum     *promSample
		count   *promSample
	}
	series := map[string]*histSeries{}
	get := func(fam, key string) *histSeries {
		k := fam + "|" + key
		if series[k] == nil {
			series[k] = &histSeries{}
		}
		return series[k]
	}
	for i := range samples {
		s := &samples[i]
		fam, suf := histogramFamily(s.name)
		if suf == "" || types[fam] != "histogram" {
			continue
		}
		hs := get(fam, labelKeyWithoutLe(s.labels))
		switch suf {
		case "_bucket":
			hs.buckets = append(hs.buckets, *s)
		case "_sum":
			hs.sum = s
		case "_count":
			hs.count = s
		}
	}
	if len(series) < 3 {
		t.Fatalf("expected >= 3 histogram series, got %d", len(series))
	}
	for key, hs := range series {
		if hs.sum == nil || hs.count == nil {
			t.Errorf("series %s: missing _sum or _count", key)
			continue
		}
		if len(hs.buckets) == 0 {
			t.Errorf("series %s: no buckets", key)
			continue
		}
		prev := -1.0
		for _, b := range hs.buckets {
			if _, ok := b.labels["le"]; !ok {
				t.Errorf("series %s: bucket without le label: %q", key, b.line)
			}
			if b.value < prev {
				t.Errorf("series %s: bucket counts not monotone (%v after %v)", key, b.value, prev)
			}
			prev = b.value
		}
		last := hs.buckets[len(hs.buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("series %s: last bucket le=%q, want +Inf", key, last.labels["le"])
		}
		if last.value != hs.count.value {
			t.Errorf("series %s: +Inf bucket %v != count %v", key, last.value, hs.count.value)
		}
	}

	// The labelled-histogram regression: the family headers must never
	// carry a label body, and no sample may put text after the braces.
	for name := range types {
		if strings.ContainsAny(name, "{}") {
			t.Errorf("TYPE header with labels: %q", name)
		}
	}
	if strings.Contains(text, `}_`) {
		t.Errorf("sample with suffix after label body:\n%s", text)
	}
}

// TestPrometheusSampleNamesDistinct guards against the same series
// being emitted twice (scrapers reject duplicate samples).
func TestPrometheusSampleNamesDistinct(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTraceRecords).Inc()
	r.Gauge(MetricEngineWorkers).Set(1)
	r.Histogram(LabelMetric(MetricServeDetectLatencyNs, "source", "a"), DetectLatencyBounds).Observe(1)
	var sb strings.Builder
	if err := r.writePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, _, _ := parseExposition(t, sb.String())
	seen := map[string]bool{}
	for _, s := range samples {
		key := s.name + "{"
		for _, k := range sortedLabelKeys(s.labels) {
			key += k + "=" + s.labels[k] + ","
		}
		if seen[key] {
			t.Errorf("duplicate series %q", key)
		}
		seen[key] = true
	}
}

func sortedLabelKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
