package agg

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs/flight"
	"loopscope/internal/routing"
	"loopscope/internal/serve"
	"loopscope/internal/stats"
	"loopscope/internal/trace"
	"loopscope/internal/traffic"
)

// update rewrites testdata/wire.golden and testdata/statusz.golden from
// the current code. The first pins the bytes of every JSON document the
// daemon and the aggregator emit, the second what the two status pages
// say; regenerate them only for a change that means to alter either.
var update = flag.Bool("update", false, "rewrite testdata/wire.golden and testdata/statusz.golden from the current code")

// wallClockFields are the keys whose values come from a wall clock.
// Their values are masked before comparison; their presence and
// position are still pinned.
var wallClockFields = []string{
	"uptimeS", "emittedAtNs", "lagNs", "lastSeenUnixNs",
	"detectedNs", "publishedNs", "journaledNs", "webhookSentNs", "ingestedNs", "clusteredNs",
}

var wallClockValue = regexp.MustCompile(`"(` + strings.Join(wallClockFields, "|") + `)":(\s*)-?[0-9]+`)

// TestGoldenWireDocuments runs a seeded daemon (journal, webhook, flight
// recorder, analytics) over a scripted trace, feeds its loop events to
// an aggregator through the push endpoint, and records every document
// the two emit: the daemon's health, one loops page with its cursor,
// sources, stats, trace index and an error body; the aggregator's
// health, fleet loops, vantages, stats, latency, an ingest reply and an
// error body; one journal line and one webhook body. The two status
// pages are pinned beside them, as the projection statuszProjection
// makes of each.
func TestGoldenWireDocuments(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.lspt")
	writeGoldenTrace(t, tracePath)

	// The webhook target records every body and acknowledges it.
	var hookMu sync.Mutex
	var hookBodies [][]byte
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		hookMu.Lock()
		hookBodies = append(hookBodies, body)
		hookMu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer hook.Close()

	d, err := serve.New(serve.Config{
		Detector:           core.DefaultConfig(),
		Vantage:            "golden-vantage",
		CheckpointInterval: 10 * time.Millisecond,
		ExitIdle:           250 * time.Millisecond,
		TailPoll:           2 * time.Millisecond,
		Flight:             flight.New(flight.Options{}),
		Analytics:          analytics.NewCollector(analytics.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "loops.jsonl")
	j, err := serve.NewJournal(serve.JournalOptions{Path: journalPath})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	d.AddSink(serve.NewWebhook(serve.WebhookOptions{URL: hook.URL, Timeout: 5 * time.Second}))
	if err := d.AddTailSource("t1", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	daemon := httptest.NewServer(d.Handler())
	defer daemon.Close()

	lines := journalLines(t, journalPath)
	if len(lines) < 3 || len(hookBodies) == 0 {
		t.Fatalf("daemon journaled %d events and posted %d; want at least 3 and 1", len(lines), len(hookBodies))
	}

	// The aggregator ingests the journaled events with fixed provenance
	// stamps, so its latency sketches are reproducible.
	a := newTestAgg(t, Config{})
	aggSrv := httptest.NewServer(a.Handler())
	defer aggSrv.Close()
	var ingestReply []byte
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		base := int64(1_700_000_000_000_000_000) - int64(len(lines)-i)*int64(time.Second)
		ev["emittedAtNs"] = base
		ev["prov"] = map[string]int64{
			"detectedNs":    base,
			"publishedNs":   base + int64(i+1)*1000,
			"journaledNs":   base + int64(i+1)*3000,
			"webhookSentNs": base + int64(i+1)*5000,
		}
		body, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(aggSrv.URL+"/api/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, reply)
		}
		if i == 0 {
			ingestReply = reply
		}
	}

	var out bytes.Buffer
	section := func(name string, doc []byte) {
		doc = wallClockValue.ReplaceAll(doc, []byte(`"$1":$2"<wall-clock>"`))
		doc = bytes.ReplaceAll(doc, []byte(dir), []byte("<tmp>"))
		fmt.Fprintf(&out, "== %s ==\n%s\n", name, bytes.TrimRight(doc, "\n"))
	}
	get := func(name, url string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("%s (%d)", name, resp.StatusCode), body)
	}
	for _, p := range []string{
		"/api/v1/health", "/api/v1/loops?limit=2", "/api/v1/sources",
		"/api/v1/stats", "/api/v1/trace", "/api/v1/loops?limit=0",
	} {
		get("daemon GET "+p, daemon.URL+p)
	}
	section("aggregator POST /api/v1/ingest", ingestReply)
	for _, p := range []string{
		"/api/v1/health", "/api/v1/fleet/loops", "/api/v1/fleet/vantages",
		"/api/v1/fleet/stats", "/api/v1/fleet/latency", "/api/v1/fleet/stats?vantage=nope",
	} {
		get("aggregator GET "+p, aggSrv.URL+p)
	}
	section("journal line", lines[0])
	section("webhook body", hookBodies[0])
	compareGolden(t, "wire.golden", out.Bytes())

	var pages bytes.Buffer
	for _, srv := range []struct{ name, url string }{{"daemon", daemon.URL}, {"aggregator", aggSrv.URL}} {
		resp, err := http.Get(srv.url + "/api/v1/statusz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&pages, "== %s GET /api/v1/statusz (%d) ==\n%s", srv.name, resp.StatusCode, statuszProjection(string(body)))
	}
	compareGolden(t, "statusz.golden", pages.Bytes())
}

// compareGolden compares got with testdata/name, or rewrites the file
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("documents drifted from %s:\n%s", golden, firstDiff(want, got))
	}
}

var (
	htmlTag   = regexp.MustCompile(`(?s)<(/?)([!a-zA-Z0-9]+)([^>]*)>`)
	htmlHref  = regexp.MustCompile(`href="([^"]*)"`)
	htmlStyle = regexp.MustCompile(`(?s)<style>.*?</style>`)
	// wallClockText masks the summary line's wall-clock durations.
	wallClockText = regexp.MustCompile(`(uptime|last checkpoint) [^ ]+`)
)

// wallClockColumns are the status-page columns whose cells come from
// a wall clock: the daemon's detect-to-journal provenance latency.
var wallClockColumns = []string{"detect→journal"}

// statuszProjection reduces a status page to what it says, independent
// of its markup: every text node (the style sheet aside) and every href
// value in document order, whitespace collapsed. A table row is one line, its cells
// separated by " | " (an href as [url]); every other element ends a
// line at its closing tag. Cells under a wallClockColumns header, and
// the summary line's uptime and checkpoint age, are masked.
func statuszProjection(page string) string {
	page = htmlStyle.ReplaceAllString(page, "")
	var out strings.Builder
	var line, header []string
	cell, th := -1, false // cell: index of the open cell in line, -1 outside a row
	add := func(s string) {
		if s = strings.Join(strings.Fields(s), " "); s == "" {
			return
		}
		if cell < 0 {
			line = append(line, s)
			return
		}
		if line[cell] != "" {
			line[cell] += " "
		}
		line[cell] += s
	}
	flush := func() {
		if len(line) > 0 {
			out.WriteString(wallClockText.ReplaceAllString(strings.Join(line, " | "), "$1 <wall-clock>") + "\n")
		}
		line, cell = nil, -1
	}
	last := 0
	for _, m := range htmlTag.FindAllStringSubmatchIndex(page, -1) {
		add(html.UnescapeString(page[last:m[0]]))
		last = m[1]
		closing, tag, attrs := page[m[2]:m[3]] == "/", strings.ToLower(page[m[4]:m[5]]), page[m[6]:m[7]]
		switch {
		case tag == "tr" && !closing:
			flush()
			th = false
		case (tag == "td" || tag == "th") && !closing:
			line = append(line, "")
			cell = len(line) - 1
			th = th || tag == "th"
		case tag == "tr" && th:
			header = append([]string(nil), line...)
			flush()
		case tag == "tr":
			for i := range line {
				if i < len(header) && slices.Contains(wallClockColumns, header[i]) && line[i] != "" {
					line[i] = "<wall-clock>"
				}
			}
			flush()
		case tag == "table" && closing:
			header = nil
		case closing && (tag == "p" || tag == "h1" || tag == "h2" || tag == "title"):
			flush()
		}
		if h := htmlHref.FindStringSubmatch(attrs); h != nil {
			add("[" + html.UnescapeString(h[1]) + "]")
		}
	}
	add(html.UnescapeString(page[last:]))
	flush()
	return out.String()
}

// writeGoldenTrace writes a seeded 40-second trace with six scripted
// loops over three prefixes.
func writeGoldenTrace(t *testing.T, path string) {
	t.Helper()
	rng := stats.NewRNG(35)
	var dests []routing.Prefix
	for i := 0; i < 16; i++ {
		dests = append(dests, routing.MustParsePrefix(fmt.Sprintf("198.18.%d.0/24", i)))
	}
	cfg := traffic.SynthConfig{
		Duration: 40 * time.Second, PacketsPerSecond: 600,
		Mix: traffic.DefaultMix(), DestPrefixes: dests,
		HopsMin: 3, HopsMax: 9,
	}
	for i, start := range []time.Duration{2, 20, 5, 25, 8, 28} {
		cfg.Loops = append(cfg.Loops, traffic.LoopSpec{
			Prefix: dests[i/2], Start: start * time.Second, Duration: 1200 * time.Millisecond,
			TTLDelta: 3, Revolution: 3 * time.Millisecond,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Meta{Link: "goldenlink", Start: time.Unix(1700000000, 0), SnapLen: trace.DefaultSnapLen})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range traffic.Synthesize(cfg, rng) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// journalLines returns the journal file's lines.
func journalLines(t *testing.T, path string) [][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// firstDiff names the first line on which got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\nwant %s\n got %s", i+1, w, g)
		}
	}
	return "(equal)"
}
