package serve

import (
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/obs"
	"loopscope/internal/obs/flight"
)

// statuszTmpl renders the human-readable daemon status page: one
// glance answers "is it alive, is it keeping up, what has it found,
// and can I see why" — the last via per-event links into /api/v1/trace.
var statuszTmpl = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html><head><title>loopscoped status</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 0.25em 0.75em; text-align: left; }
th { background: #eee; }
.num { text-align: right; }
</style></head><body>
<h1>loopscoped</h1>
<p>uptime {{.Uptime}}{{if .HasCheckpoint}} &middot; last checkpoint {{.CheckpointAge}} ago{{end}}
 &middot; {{.Events}} events ({{.RingTotal}} in ring)</p>

{{if .Health}}<h2>component health</h2>
<table>
<tr><th>component</th><th>state</th></tr>
{{range .Health}}<tr><td>{{.Component}}</td><td>{{.State}}</td></tr>{{end}}
</table>{{end}}

<h2>sources</h2>
<table>
<tr><th>name</th><th>kind</th><th>status</th><th class=num>records</th><th class=num>emitted</th><th class=num>lag</th><th>segment</th><th class=num>restarts</th><th>last error</th></tr>
{{range .Sources}}<tr>
<td>{{.Name}}</td><td>{{.Kind}}</td><td>{{.Status}}</td>
<td class=num>{{.Records}}</td><td class=num>{{.Emitted}}</td>
<td class=num>{{.LagBytes}} B{{if .LagSegments}} +{{.LagSegments}} seg{{end}}</td>
<td>{{if .Segments}}{{.Segment}}/{{.Segments}}{{end}}</td>
<td class=num>{{.Restarts}}</td><td>{{.LastErr}}</td>
</tr>{{end}}
</table>

<h2>recent loops</h2>
<table>
<tr><th>id</th><th>source</th><th>prefix</th><th class=num>streams</th><th class=num>replicas</th><th class=num>duration</th><th class=num>detect&rarr;journal</th><th>truncated</th></tr>
{{range .Recent}}<tr>
<td>{{if $.FlightOn}}<a href="/api/v1/trace/{{.ID}}">{{.ID}}</a>{{else}}{{.ID}}{{end}}</td>
<td>{{.Source}}</td><td>{{.Prefix}}</td>
<td class=num>{{.Streams}}</td><td class=num>{{.Replicas}}</td>
<td class=num>{{.Duration}}</td><td class=num>{{.Pipeline}}</td><td>{{if .Truncated}}yes{{end}}</td>
</tr>{{end}}
</table>

{{if .Analytics}}<h2>analytics (all time, &alpha;={{.SketchAlpha}})</h2>
<table>
<tr><th>metric</th><th class=num>count</th><th class=num>p50</th><th class=num>p90</th><th class=num>p99</th><th>distribution</th></tr>
{{range .Analytics}}<tr>
<td>{{.Metric}}</td><td class=num>{{.Count}}</td>
<td class=num>{{.P50}}</td><td class=num>{{.P90}}</td><td class=num>{{.P99}}</td>
<td>{{.Spark}}</td>
</tr>{{end}}
</table>
{{if .TopPrefixes}}<h2>top looping prefixes</h2>
<table>
<tr><th>prefix</th><th class=num>loops</th><th class=num>&plusmn;err</th></tr>
{{range .TopPrefixes}}<tr><td>{{.Key}}</td><td class=num>{{.Count}}</td><td class=num>{{.Err}}</td></tr>{{end}}
</table>{{end}}
{{end}}

{{if .FlightOn}}<h2>flight recorder</h2>
<p>{{.Flight.Events}} events recorded &middot; {{.Flight.Sealed}} trails sealed &middot; {{.Flight.Trails}} retained ({{.Flight.Evicted}} evicted) &middot; {{.Flight.Shards}} shards</p>
{{end}}

{{if .LogCounts}}<h2>log messages</h2>
<table><tr><th>level</th><th class=num>messages</th></tr>
{{range .LogCounts}}<tr><td>{{.Level}}</td><td class=num>{{.Count}}</td></tr>{{end}}
</table>{{end}}
</body></html>
`))

type statuszRecent struct {
	ID       string
	Source   string
	Prefix   string
	Streams  int
	Replicas int
	Duration time.Duration
	// Pipeline is the local detect→journal provenance latency, the
	// daemon-side slice of the end-to-end figure the agg statusz shows.
	Pipeline  string
	Truncated bool
}

type statuszLogCount struct {
	Level string
	Count int64
}

type statuszHealth struct {
	Component string
	State     string
}

// statuszAnalyticsRow is one metric's sparkline-table row.
type statuszAnalyticsRow struct {
	Metric        string
	Count         uint64
	P50, P90, P99 string
	Spark         string
}

// sparkRunes render a histogram as a one-line sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark scales bucket counts into sparkline runes (empty input: "").
func spark(counts []uint64) string {
	var max uint64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return ""
	}
	out := make([]rune, len(counts))
	for i, c := range counts {
		lvl := int(c * uint64(len(sparkRunes)-1) / max)
		out[i] = sparkRunes[lvl]
	}
	return string(out)
}

// statuszQuantile formats a quantile for the analytics table:
// nanosecond metrics as durations, counts as integers.
func statuszQuantile(metric string, v int64) string {
	switch metric {
	case analytics.MetricDuration, analytics.MetricEscapeDelay:
		return time.Duration(v).Round(time.Microsecond).String()
	default:
		return strconv.FormatInt(v, 10)
	}
}

// analyticsRows renders the cumulative analytics view for statusz.
func analyticsRows(st *analytics.Stats) []statuszAnalyticsRow {
	rows := make([]statuszAnalyticsRow, 0, len(analytics.Metrics))
	for _, name := range analytics.Metrics {
		ms, ok := st.Metrics[name]
		if !ok {
			continue
		}
		counts := make([]uint64, len(ms.Buckets))
		for i, b := range ms.Buckets {
			counts[i] = b.Count
		}
		rows = append(rows, statuszAnalyticsRow{
			Metric: name,
			Count:  ms.Count,
			P50:    statuszQuantile(name, ms.Quantiles["p50"]),
			P90:    statuszQuantile(name, ms.Quantiles["p90"]),
			P99:    statuszQuantile(name, ms.Quantiles["p99"]),
			Spark:  spark(counts),
		})
	}
	return rows
}

// handleStatusz renders the status page.
func (d *Daemon) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	infos := d.sourceInfos()

	var recent []statuszRecent
	for _, e := range d.ring.PageAfter(0, 20, nil).Events {
		row := statuszRecent{
			ID: e.ID, Source: e.Source, Prefix: e.Prefix,
			Streams: e.Streams, Replicas: e.Replicas,
			Duration:  time.Duration(e.DurationNs).Round(time.Millisecond),
			Truncated: e.Truncated,
		}
		// The ring copy carries the journaled stamp (publish stamps it
		// before the ring sees the event), so detect→journal is the
		// widest same-process pipeline segment available here.
		if p := e.Prov; p != nil && p.DetectedNs > 0 && p.JournaledNs > 0 {
			row.Pipeline = time.Duration(p.JournaledNs - p.DetectedNs).Round(time.Microsecond).String()
		}
		recent = append(recent, row)
	}

	data := struct {
		Uptime        time.Duration
		HasCheckpoint bool
		CheckpointAge time.Duration
		Events        int64
		RingTotal     int64
		Sources       []SourceInfo
		Recent        []statuszRecent
		FlightOn      bool
		Flight        flight.Stats
		LogCounts     []statuszLogCount
		Health        []statuszHealth
		Analytics     []statuszAnalyticsRow
		TopPrefixes   []analytics.TopKItem
		SketchAlpha   float64
	}{
		Uptime:    time.Since(d.started).Round(time.Second),
		Events:    d.ring.Total(),
		RingTotal: d.ring.Total(),
		Sources:   infos,
		Recent:    recent,
		FlightOn:  d.cfg.Flight != nil,
	}
	if a := d.cfg.Analytics; a != nil {
		if st, err := a.Query(analytics.Query{}); err == nil {
			data.Analytics = analyticsRows(st)
			data.TopPrefixes = st.TopPrefixes
			if len(data.TopPrefixes) > 10 {
				data.TopPrefixes = data.TopPrefixes[:10]
			}
			data.SketchAlpha = st.ErrorBound
		}
	}
	if ns := d.cpLastNs.Load(); ns > 0 {
		data.HasCheckpoint = true
		data.CheckpointAge = time.Since(time.Unix(0, ns)).Round(time.Millisecond)
	}
	if data.FlightOn {
		data.Flight = d.cfg.Flight.Stats()
	}
	for component, state := range d.health.Snapshot() {
		data.Health = append(data.Health, statuszHealth{Component: component, State: state})
	}
	sort.Slice(data.Health, func(i, j int) bool { return data.Health[i].Component < data.Health[j].Component })
	if d.cfg.Metrics != nil {
		prefix := obs.MetricLogMessages + "{"
		snap := d.cfg.Metrics.Snapshot()
		for name, v := range snap.Counters {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			level := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
			level = strings.TrimPrefix(level, `level="`)
			data.LogCounts = append(data.LogCounts, statuszLogCount{Level: level, Count: v})
		}
		sort.Slice(data.LogCounts, func(i, j int) bool {
			return data.LogCounts[i].Level < data.LogCounts[j].Level
		})
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, data); err != nil {
		d.log.Warn("statusz render failed", "err", err)
	}
}
