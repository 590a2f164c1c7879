package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"loopscope/internal/analytics"
	"loopscope/internal/core"
	"loopscope/internal/obs/flight"
	client "loopscope/pkg/loopscope"
)

// newV1Fixture runs one daemon (analytics and flight recorder wired)
// over a scripted trace to completion, then serves its handler. The
// subtests of TestV1API share it: the daemon is idle, so every
// read-only query sees the same frozen state.
func newV1Fixture(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.lspt")
	recs := serveScriptedTrace(t, 31, []scriptedLoop{
		{prefix: 0, start: 2 * time.Second}, {prefix: 0, start: 20 * time.Second},
		{prefix: 1, start: 5 * time.Second}, {prefix: 1, start: 25 * time.Second},
		{prefix: 2, start: 8 * time.Second}, {prefix: 2, start: 28 * time.Second},
	})
	writeTraceFile(t, tracePath, testMeta(), recs)

	d, err := New(Config{
		Detector:              core.DefaultConfig(),
		CheckpointPath:        filepath.Join(dir, "cp.json"),
		CheckpointInterval:    10 * time.Millisecond,
		ExitIdle:              250 * time.Millisecond,
		TailPoll:              2 * time.Millisecond,
		Flight:                flight.New(flight.Options{}),
		Analytics:             analytics.NewCollector(analytics.Options{}),
		AnalyticsSnapshotPath: filepath.Join(dir, "cp.json.analytics"),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{Path: filepath.Join(dir, "loops.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	if err := d.AddTailSource("t1", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if d.ring.Total() == 0 {
		t.Fatal("fixture daemon published no events")
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

// getV1 fetches a v1 path, requires a 200 envelope, and decodes its
// data block into v.
func getV1(t *testing.T, url string, v any) {
	t.Helper()
	status, _, body := v1Get(t, url)
	if status != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", url, status, body)
	}
	var env struct {
		Data json.RawMessage `json:"data"`
		Meta struct {
			API string `json:"api"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: not an envelope: %v (%s)", url, err, body)
	}
	if env.Meta.API != "v1" {
		t.Fatalf("%s: meta.api = %q, want v1", url, env.Meta.API)
	}
	if err := json.Unmarshal(env.Data, v); err != nil {
		t.Fatalf("%s: decoding data: %v (%s)", url, err, env.Data)
	}
}

// v1Get fetches a v1 path and returns the status, headers, and raw
// body.
func v1Get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

func TestV1API(t *testing.T) {
	d, srv := newV1Fixture(t)

	// Every success answers inside the envelope with meta.api == "v1".
	t.Run("envelope", func(t *testing.T) {
		for _, path := range []string{
			"/api/v1/health", "/api/v1/loops", "/api/v1/sources",
			"/api/v1/stats", "/api/v1/trace",
		} {
			status, hdr, body := v1Get(t, srv.URL+path)
			if status != http.StatusOK {
				t.Errorf("%s: status %d, want 200 (%s)", path, status, body)
				continue
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("%s: content-type %q", path, ct)
			}
			var env struct {
				Data json.RawMessage `json:"data"`
				Meta struct {
					API string `json:"api"`
				} `json:"meta"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Errorf("%s: not an envelope: %v", path, err)
				continue
			}
			if env.Meta.API != "v1" {
				t.Errorf("%s: meta.api = %q, want v1", path, env.Meta.API)
			}
			if len(env.Data) == 0 || string(env.Data) == "null" {
				t.Errorf("%s: empty data", path)
			}
		}
	})

	// Every malformed query parameter of every endpoint is a 400 with
	// the uniform error object; well-formed references to missing
	// resources are 404s with the same shape.
	t.Run("param-errors", func(t *testing.T) {
		cases := []struct {
			query      string
			wantStatus int
			wantCode   string
		}{
			{"/api/v1/health?bogus=1", 400, "bad_param"},
			{"/api/v1/sources?bogus=1", 400, "bad_param"},
			{"/api/v1/trace?bogus=1", 400, "bad_param"},
			{"/api/v1/loops?bogus=1", 400, "bad_param"},
			{"/api/v1/loops?limit=0", 400, "bad_param"},
			{"/api/v1/loops?limit=-3", 400, "bad_param"},
			{"/api/v1/loops?limit=1001", 400, "bad_param"},
			{"/api/v1/loops?limit=x", 400, "bad_param"},
			{"/api/v1/loops?limit=2&limit=3", 400, "bad_param"},
			{"/api/v1/loops?limit=%zz", 400, "bad_param"},
			{"/api/v1/loops?bogus%zz=1", 400, "bad_param"},
			{"/api/v1/loops?limit=5;x=1", 400, "bad_param"},
			{"/api/v1/loops?cursor=0", 400, "bad_param"},
			{"/api/v1/loops?cursor=-1", 400, "bad_param"},
			{"/api/v1/loops?cursor=x", 400, "bad_param"},
			{"/api/v1/loops?source=nope", 404, "not_found"},
			{"/api/v1/stats?bogus=1", 400, "bad_param"},
			{"/api/v1/stats?window=bogus", 400, "bad_param"},
			{"/api/v1/stats?window=-5m", 400, "bad_param"},
			{"/api/v1/stats?window=10s", 400, "bad_param"},
			{"/api/v1/stats?window=400h", 400, "bad_param"},
			{"/api/v1/stats?window=1h&window=2h", 400, "bad_param"},
			{"/api/v1/stats?metric=nope", 400, "bad_param"},
			{"/api/v1/stats?source=nope", 404, "not_found"},
			{"/api/v1/trace/deadbeef00000000", 404, "not_found"},
		}
		for _, tc := range cases {
			status, _, body := v1Get(t, srv.URL+tc.query)
			if status != tc.wantStatus {
				t.Errorf("%s: status %d, want %d (%s)", tc.query, status, tc.wantStatus, body)
				continue
			}
			var eb struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Errorf("%s: not an error object: %v (%s)", tc.query, err, body)
				continue
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("%s: code %q, want %q", tc.query, eb.Error.Code, tc.wantCode)
			}
			if eb.Error.Message == "" {
				t.Errorf("%s: empty error message", tc.query)
			}
		}
	})

	// Cursor pagination walks the whole ring newest-to-oldest with no
	// gaps or repeats, and agrees with a single max-size page.
	t.Run("pagination", func(t *testing.T) {
		var all struct {
			Events []client.LoopEvent `json:"events"`
		}
		getV1(t, srv.URL+"/api/v1/loops?limit=1000", &all)
		if len(all.Events) == 0 {
			t.Fatal("no events in the ring")
		}
		var walked []client.LoopEvent
		url := srv.URL + "/api/v1/loops?limit=2"
		for pages := 0; ; pages++ {
			if pages > len(all.Events) {
				t.Fatal("pagination never terminated")
			}
			status, _, body := v1Get(t, url)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d (%s)", url, status, body)
			}
			var env struct {
				Data struct {
					Events []client.LoopEvent `json:"events"`
				} `json:"data"`
				Meta struct {
					Total      *int64 `json:"total"`
					NextCursor *int64 `json:"nextCursor"`
				} `json:"meta"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.Meta.Total == nil || *env.Meta.Total != d.ring.Total() {
				t.Fatalf("meta.total = %v, want %d", env.Meta.Total, d.ring.Total())
			}
			if len(env.Data.Events) > 2 {
				t.Fatalf("page holds %d events, limit was 2", len(env.Data.Events))
			}
			walked = append(walked, env.Data.Events...)
			if env.Meta.NextCursor == nil {
				break
			}
			url = fmt.Sprintf("%s/api/v1/loops?limit=2&cursor=%d", srv.URL, *env.Meta.NextCursor)
		}
		if !reflect.DeepEqual(walked, all.Events) {
			t.Errorf("walked %d events != single page %d events", len(walked), len(all.Events))
		}
		for i := 1; i < len(walked); i++ {
			if walked[i].Seq >= walked[i-1].Seq {
				t.Fatalf("walk not strictly newest-first at %d: seq %d then %d", i, walked[i-1].Seq, walked[i].Seq)
			}
		}
	})

	// The five pre-v1 aliases are gone (404, no redirect), and nothing
	// under /api/v1 is marked deprecated.
	t.Run("aliases-gone", func(t *testing.T) {
		for _, path := range []string{"/healthz", "/api/loops", "/api/sources", "/api/trace/", "/statusz"} {
			if status, _, body := v1Get(t, srv.URL+path); status != http.StatusNotFound {
				t.Errorf("%s: status %d (%s), want 404", path, status, body)
			}
		}
		for _, path := range []string{"/api/v1/health", "/api/v1/loops", "/api/v1/sources", "/api/v1/trace", "/api/v1/stats", "/api/v1/statusz"} {
			status, hdr, _ := v1Get(t, srv.URL+path)
			if dep := hdr.Get("Deprecation"); status != http.StatusOK || dep != "" {
				t.Errorf("%s: status %d, Deprecation header %q; want 200 and none", path, status, dep)
			}
		}
	})

	// The stats endpoint serves exactly the collector's document.
	t.Run("stats-matches-collector", func(t *testing.T) {
		var got client.Stats
		getV1(t, srv.URL+"/api/v1/stats", &got)
		want, err := d.cfg.Analytics.Query(analytics.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("served stats differ from collector:\n got %+v\nwant %+v", &got, want)
		}
		if got.Loops == 0 {
			t.Error("fixture recorded no loops")
		}
		if got.ErrorBound != analytics.SketchAlpha {
			t.Errorf("errorBound = %v, want %v", got.ErrorBound, analytics.SketchAlpha)
		}
	})

	// The typed client round-trips every endpoint against a live
	// daemon, decoding envelopes and turning error objects into
	// *APIError values.
	t.Run("client-round-trip", func(t *testing.T) {
		ctx := context.Background()
		c := client.New(srv.URL)

		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Sources != 1 || h.Events != d.ring.Total() {
			t.Errorf("health = %+v, want 1 source, %d events", h, d.ring.Total())
		}

		srcs, err := c.Sources(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(srcs) != 1 || srcs[0].Name != "t1" {
			t.Fatalf("sources = %+v, want [t1]", srcs)
		}

		var walked int64
		q := client.LoopsQuery{Limit: 3}
		for {
			page, err := c.Loops(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			walked += int64(len(page.Events))
			for _, ev := range page.Events {
				if ev.Event.ID == "" || ev.Event.Prefix == "" {
					t.Fatalf("client event missing fields: %+v", ev)
				}
			}
			if page.NextCursor == 0 {
				if page.Total != d.ring.Total() {
					t.Errorf("client total = %d, want %d", page.Total, d.ring.Total())
				}
				break
			}
			q.Cursor = page.NextCursor
		}
		if ringLen := int64(len(d.ring.PageAfter(0, ringSize, nil).Events)); walked != ringLen {
			t.Errorf("client walked %d events, ring holds %d", walked, ringLen)
		}

		st, err := c.Stats(ctx, client.StatsQuery{Source: "t1", Metric: analytics.MetricDuration})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Metrics) != 1 || st.Metrics[analytics.MetricDuration].Count == 0 {
			t.Errorf("client stats = %+v, want populated duration metric", st)
		}

		ids, err := c.TraceIDs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			t.Fatal("client trail index empty")
		}
		raw, err := c.Trace(ctx, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		var tr flight.Trail
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.ID != ids[0] {
			t.Errorf("trail id = %q, want %q", tr.ID, ids[0])
		}

		// Error objects surface as typed *APIError values.
		if _, err := c.Stats(ctx, client.StatsQuery{Metric: "nope"}); err == nil {
			t.Error("bad metric: want error")
		} else if ae, ok := err.(*client.APIError); !ok || ae.Status != 400 || ae.Code != "bad_param" {
			t.Errorf("bad metric: err = %v, want *APIError{400, bad_param}", err)
		}
		if _, err := c.Trace(ctx, "deadbeef00000000"); err == nil {
			t.Error("unknown trail: want error")
		} else if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 || ae.Code != "not_found" {
			t.Errorf("unknown trail: err = %v, want *APIError{404, not_found}", err)
		}
	})
}

// TestV1StatsQuietSource checks the deliberate asymmetry: a source
// the daemon knows but that has recorded nothing answers an empty
// stats document (200), while an unconfigured name is a 404. The empty
// document spells its window as a populated source's does, because
// both come from Query.
func TestV1StatsQuietSource(t *testing.T) {
	col := analytics.NewCollector(analytics.Options{})
	d, err := New(Config{Detector: core.DefaultConfig(), Analytics: col})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quiet", "busy"} {
		if err := d.AddDirSource(name, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	col.RecordLoop("busy", analytics.LoopObs{ID: "e1", Prefix: "10.0.0.0/24", DurationNs: 1e9, TTLDelta: 2, Streams: 1, Replicas: 5})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	stats := func(query string) client.Stats {
		t.Helper()
		status, _, body := v1Get(t, srv.URL+"/api/v1/stats?"+query)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", query, status, body)
		}
		var env struct {
			Data client.Stats `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		return env.Data
	}
	quiet := stats("source=quiet")
	if quiet.Loops != 0 || quiet.Source != "quiet" {
		t.Errorf("quiet stats = %+v, want zero loops for source quiet", quiet)
	}
	if len(quiet.Metrics) == 0 {
		t.Error("quiet stats should still enumerate every metric")
	}
	idle, busy := stats("window=300s&source=quiet"), stats("window=300s&source=busy")
	if idle.Window != busy.Window || busy.Window != "5m0s" {
		t.Errorf("window spelled %q for the quiet source and %q for the busy one, want 5m0s for both", idle.Window, busy.Window)
	}

	if status, _, _ := v1Get(t, srv.URL+"/api/v1/stats?source=nope"); status != http.StatusNotFound {
		t.Errorf("unknown source: status %d, want 404", status)
	}
}

// TestV1StatsDisabled checks a daemon without a collector reports the
// subsystem disabled rather than an empty document.
func TestV1StatsDisabled(t *testing.T) {
	d, err := New(Config{Detector: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	status, _, body := v1Get(t, srv.URL+"/api/v1/stats")
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", status, body)
	}
	var eb struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "disabled" {
		t.Errorf("body %s, want error code disabled", body)
	}
}

// TestV1OnlineMatchesOffline runs the daemon's streaming pipeline and
// the offline batch engine (the loopdetect -json path) over the same
// records and requires the two analytics documents to agree: same
// loop population, identical quantiles — the acceptance criterion
// that /api/v1/stats matches loopdetect -json because both feed the
// same sketches through analytics.ObsFromLoop.
func TestV1OnlineMatchesOffline(t *testing.T) {
	recs := serveTestTrace(t, 13, 8)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	d := newTestDaemon(t, filepath.Join(dir, "loops.jsonl"), filepath.Join(dir, "cp.json"))
	if err := d.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	online, err := d.cfg.Analytics.Query(analytics.Query{})
	if err != nil {
		t.Fatal(err)
	}

	e, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		e.Observe(r)
	}
	res := e.Finish()
	off := analytics.NewCollector(analytics.Options{})
	off.RecordResult("src", res)
	offline, err := off.Query(analytics.Query{})
	if err != nil {
		t.Fatal(err)
	}

	if online.Loops != offline.Loops {
		t.Fatalf("online recorded %d loops, offline %d", online.Loops, offline.Loops)
	}
	if online.Loops == 0 {
		t.Fatal("no loops detected; trace too quiet")
	}
	for _, metric := range analytics.Metrics {
		on, of := online.Metrics[metric], offline.Metrics[metric]
		if on.Count != of.Count {
			t.Errorf("%s: online count %d, offline %d", metric, on.Count, of.Count)
		}
		if !reflect.DeepEqual(on.Quantiles, of.Quantiles) {
			t.Errorf("%s: online quantiles %v, offline %v", metric, on.Quantiles, of.Quantiles)
		}
	}
	if !reflect.DeepEqual(online.TopPrefixes, offline.TopPrefixes) {
		t.Errorf("top prefixes differ: online %v, offline %v", online.TopPrefixes, offline.TopPrefixes)
	}
}

// The status page counts every event published and, separately, the
// events the ring holds: past ringSize the two part.
func TestStatuszRingCount(t *testing.T) {
	d, err := New(Config{Detector: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1030; i++ {
		d.publish(Event{ID: fmt.Sprintf("e%d", i), Source: "s", Prefix: "10.0.0.0/24"})
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	status, _, body := v1Get(t, srv.URL+"/api/v1/statusz")
	if want := "1030 events (1024 in ring)"; status != http.StatusOK || !strings.Contains(string(body), want) {
		t.Errorf("statusz: status %d, want 200 and %q in\n%s", status, want, body)
	}
}
