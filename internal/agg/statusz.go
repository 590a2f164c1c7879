package agg

// The aggregator's human status page, /api/v1/statusz: the fleet-tier
// counterpart of the daemon's (internal/serve/statusz.go, same visual
// idiom). One glance answers "which vantages are reporting, how far
// behind is each, and where in the pipeline is the time going" — the
// last via the per-(segment, vantage) provenance latency table, whose
// exemplar IDs link straight to the originating daemon's flight
// recorder when the vantage arrived by pull (the poller knows its
// base URL).

import (
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/resil"
)

var aggStatuszTmpl = template.Must(template.New("agg-statusz").Parse(`<!DOCTYPE html>
<html><head><title>loopscope-agg status</title>
<style>
body { font-family: monospace; margin: 2em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 0.25em 0.75em; text-align: left; }
th { background: #eee; }
.num { text-align: right; }
</style></head><body>
<h1>loopscope-agg</h1>
<p>uptime {{.Uptime}} &middot; {{.Observations}} observations ({{.Duplicates}} duplicates)
 &middot; {{.FleetLoops}} fleet loops from {{.VantageCount}} vantages</p>

{{if .Health}}<h2>component health</h2>
<table>
<tr><th>component</th><th>state</th></tr>
{{range .Health}}<tr><td>{{.Component}}</td><td>{{.State}}</td></tr>{{end}}
</table>{{end}}

<h2>vantages</h2>
<table>
<tr><th>name</th><th>transports</th><th class=num>observations</th><th class=num>duplicates</th><th class=num>lag</th><th class=num>cursor</th><th class=num>clock skew &le;</th><th>health</th><th>last error</th></tr>
{{range .Vantages}}<tr>
<td>{{.Name}}</td><td>{{.Transports}}</td>
<td class=num>{{.Observations}}</td><td class=num>{{.Duplicates}}</td>
<td class=num>{{.Lag}}</td><td class=num>{{if .Cursor}}{{.Cursor}}{{end}}</td>
<td class=num>{{.Skew}}</td><td>{{.Health}}</td><td>{{.LastErr}}</td>
</tr>{{end}}
</table>

<h2>pipeline latency</h2>
{{if .Latency}}<table>
<tr><th>segment</th><th>vantage</th><th class=num>count</th><th class=num>clamped</th><th class=num>p50</th><th class=num>p90</th><th class=num>p99</th><th>distribution</th><th>slowest events</th></tr>
{{range .Latency}}<tr>
<td>{{.Segment}}</td><td>{{.Vantage}}</td>
<td class=num>{{.Count}}</td><td class=num>{{if .Clamped}}{{.Clamped}}{{end}}</td>
<td class=num>{{.P50}}</td><td class=num>{{.P90}}</td><td class=num>{{.P99}}</td>
<td>{{.Spark}}</td><td>{{.Exemplars}}</td>
</tr>{{end}}
</table>
<p>cross-process segments (send_ingest, publish_ingest, ingest_cluster, detect_cluster) include
inter-host clock offset; clamped counts negative deltas excluded from the sketches.</p>
{{else}}<p>no provenance-carrying observations yet</p>{{end}}
</body></html>
`))

type aggStatuszVantage struct {
	Name       string
	Transports string
	// Observations etc. mirror the vantage listing; Lag and Skew are
	// pre-formatted durations.
	Observations int64
	Duplicates   int64
	Lag          string
	Cursor       int64
	Skew         string
	Health       string
	LastErr      string
}

type aggStatuszHealth struct {
	Component string
	State     string
}

type aggStatuszLatency struct {
	Segment   string
	Vantage   string
	Count     uint64
	Clamped   uint64
	P50       string
	P90       string
	P99       string
	Spark     string
	Exemplars string
}

// statuszDur renders nanoseconds as a compact human duration.
func statuszDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// handleStatusz renders the aggregator's status page.
func (a *Aggregator) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	observations, duplicates, fleetLoops, vantageCount := a.Counts()

	var vrows []aggStatuszVantage
	for _, v := range a.Vantages() {
		row := aggStatuszVantage{
			Name:         v.Name,
			Observations: v.Observations,
			Duplicates:   v.Duplicates,
			Cursor:       v.Cursor,
			Health:       v.Health,
			LastErr:      v.LastErr,
		}
		for i, t := range v.Transports {
			if i > 0 {
				row.Transports += "+"
			}
			row.Transports += t
		}
		if v.LagNs > 0 {
			row.Lag = time.Duration(v.LagNs).Round(time.Millisecond).String()
		}
		if v.SkewSamples > 0 {
			// The running-min transport delta bounds the clock offset
			// from above; negative means the vantage clock runs ahead.
			row.Skew = statuszDur(v.SkewNs)
		}
		vrows = append(vrows, row)
	}

	var lrows []aggStatuszLatency
	for _, seg := range a.Latency("", "").Segments {
		row := aggStatuszLatency{
			Segment: seg.Segment,
			Vantage: seg.Vantage,
			Count:   seg.Count,
			Clamped: seg.Clamped,
			P50:     statuszDur(seg.Quantiles["p50"]),
			P90:     statuszDur(seg.Quantiles["p90"]),
			P99:     statuszDur(seg.Quantiles["p99"]),
			Spark:   analytics.Spark(seg.Buckets),
		}
		for i, e := range seg.Exemplars {
			if i > 0 {
				row.Exemplars += " "
			}
			row.Exemplars += e.EventID + "=" + statuszDur(e.Ns)
		}
		lrows = append(lrows, row)
	}

	var health []aggStatuszHealth
	for component, state := range a.cfg.Health.Snapshot() {
		if state == resil.Healthy.String() {
			continue
		}
		health = append(health, aggStatuszHealth{Component: component, State: state})
	}
	sort.Slice(health, func(i, j int) bool { return health[i].Component < health[j].Component })

	data := struct {
		Uptime       time.Duration
		Observations int64
		Duplicates   int64
		FleetLoops   string
		VantageCount int
		Health       []aggStatuszHealth
		Vantages     []aggStatuszVantage
		Latency      []aggStatuszLatency
	}{
		Uptime:       a.now().Sub(a.started).Round(time.Second),
		Observations: observations,
		Duplicates:   duplicates,
		FleetLoops:   strconv.Itoa(fleetLoops),
		VantageCount: vantageCount,
		Health:       health,
		Vantages:     vrows,
		Latency:      lrows,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := aggStatuszTmpl.Execute(w, data); err != nil {
		a.log.Error("statusz render failed", "err", err)
	}
}
