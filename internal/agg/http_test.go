package agg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"loopscope/internal/resil"
	"loopscope/pkg/loopscope"
)

// fleetServer builds an aggregator with a few cross-vantage
// observations behind its HTTP handler, plus the typed client —
// which doubles as the client-side contract check for the fleet
// endpoints.
func fleetServer(t *testing.T) (*Aggregator, *httptest.Server, *loopscope.Client) {
	t.Helper()
	a := newTestAgg(t, Config{})
	for _, o := range []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3),
		obs1("bb1", "10.9.9.0/24", "e3", sec(100), sec(130), 5),
	} {
		if _, err := a.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(a.Handler())
	t.Cleanup(ts.Close)
	return a, ts, loopscope.New(ts.URL)
}

func TestFleetLoopsEndpoint(t *testing.T) {
	_, _, client := fleetServer(t)
	ctx := context.Background()
	loops, err := client.FleetLoops(ctx, loopscope.FleetLoopsQuery{})
	if err != nil {
		t.Fatalf("FleetLoops: %v", err)
	}
	if len(loops) != 2 {
		t.Fatalf("got %d fleet loops, want 2", len(loops))
	}
	if got := loops[0].Vantages; len(got) != 2 {
		t.Errorf("first loop vantages = %v, want two", got)
	}
	// Prefix filter narrows; limit keeps the newest.
	filtered, err := client.FleetLoops(ctx, loopscope.FleetLoopsQuery{Prefix: "10.9.9.0/24"})
	if err != nil || len(filtered) != 1 || filtered[0].Prefix != "10.9.9.0/24" {
		t.Errorf("prefix filter: got %+v, %v", filtered, err)
	}
	limited, err := client.FleetLoops(ctx, loopscope.FleetLoopsQuery{Limit: 1})
	if err != nil || len(limited) != 1 {
		t.Errorf("limit: got %d loops, %v; want 1", len(limited), err)
	}
}

func TestFleetVantagesEndpoint(t *testing.T) {
	_, _, client := fleetServer(t)
	vs, err := client.FleetVantages(context.Background())
	if err != nil {
		t.Fatalf("FleetVantages: %v", err)
	}
	if len(vs) != 2 || vs[0].Name != "bb1" || vs[1].Name != "bb2" {
		t.Fatalf("vantages = %+v, want sorted bb1, bb2", vs)
	}
	if vs[0].Observations != 2 {
		t.Errorf("bb1 observations = %d, want 2", vs[0].Observations)
	}
}

// TestFleetStatsEndpoint also checks that a polled vantage that has
// sent no loops gets the empty document, with the window spelled as for
// a vantage that has.
func TestFleetStatsEndpoint(t *testing.T) {
	a, _, client := fleetServer(t)
	ctx := context.Background()
	st, err := client.FleetStats(ctx, loopscope.FleetStatsQuery{})
	if err != nil {
		t.Fatalf("FleetStats: %v", err)
	}
	if st.Loops != 3 {
		t.Errorf("fleet loops ingested = %d, want 3", st.Loops)
	}
	one, err := client.FleetStats(ctx, loopscope.FleetStatsQuery{Vantage: "bb2"})
	if err != nil || one.Loops != 1 {
		t.Errorf("bb2 stats = %+v, %v; want 1 loop", one, err)
	}

	a.SetCursor("idle", 0) // what a poll target's first round records
	idle, err := client.FleetStats(ctx, loopscope.FleetStatsQuery{Window: "300s", Vantage: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := client.FleetStats(ctx, loopscope.FleetStatsQuery{Window: "300s", Vantage: "bb1"})
	if err != nil {
		t.Fatal(err)
	}
	if idle.Loops != 0 || idle.Window != busy.Window || busy.Window != "5m0s" {
		t.Errorf("idle vantage: %d loops, window %q; bb1 window %q; want 0 loops and 5m0s for both", idle.Loops, idle.Window, busy.Window)
	}
}

// The latency endpoint serves the provenance sketch table through the
// typed client, with the fleet tier's filter and error discipline.
func TestFleetLatencyEndpoint(t *testing.T) {
	a, ts, client := fleetServer(t)
	ctx := context.Background()
	// The fleetServer seed events carry no provenance; add one that does.
	now := pinnedNow()
	o := obsProv("bb1", "10.1.2.0/24", "e9", sec(15), sec(42), now().Add(-30*time.Millisecond))
	if _, err := a.Ingest(o); err != nil {
		t.Fatal(err)
	}
	fl, err := client.FleetLatency(ctx, loopscope.FleetLatencyQuery{})
	if err != nil {
		t.Fatalf("FleetLatency: %v", err)
	}
	if len(fl.Segments) == 0 || fl.ErrorBound <= 0 {
		t.Fatalf("latency document empty: %+v", fl)
	}
	var sawE2E bool
	for _, row := range fl.Segments {
		if row.Segment == "detect_cluster" && row.Vantage == "bb1" {
			sawE2E = true
			if row.Count != 1 || len(row.Exemplars) != 1 || row.Exemplars[0].EventID != "e9" {
				t.Errorf("detect_cluster row = %+v, want 1 obs with exemplar e9", row)
			}
		}
	}
	if !sawE2E {
		t.Fatalf("no detect_cluster row for bb1: %+v", fl.Segments)
	}
	one, err := client.FleetLatency(ctx, loopscope.FleetLatencyQuery{Segment: "detect_cluster"})
	if err != nil || len(one.Segments) != 1 {
		t.Errorf("segment filter: %+v, %v", one, err)
	}

	var apiErr *loopscope.APIError
	_, err = client.FleetLatency(ctx, loopscope.FleetLatencyQuery{Vantage: "nope"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown vantage: %v, want 404", err)
	}
	_, err = client.FleetLatency(ctx, loopscope.FleetLatencyQuery{Segment: "bogus"})
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_param" {
		t.Errorf("unknown segment: %v, want bad_param", err)
	}

	// The agg statusz renders the vantage and latency tables, under
	// /api/v1 as the daemon's does; the bare path answers 404 on both.
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/statusz: %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := page.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d", resp.StatusCode)
	}
	for _, want := range []string{"loopscope-agg", "pipeline latency", "detect_cluster", "bb1", "e9"} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
}

// The fleet endpoints speak the daemon's exact error discipline:
// machine-readable codes behind *APIError.
func TestFleetAPIErrors(t *testing.T) {
	_, ts, client := fleetServer(t)
	ctx := context.Background()

	_, err := client.FleetStats(ctx, loopscope.FleetStatsQuery{Vantage: "nope"})
	var apiErr *loopscope.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Errorf("unknown vantage: err = %v, want 404 not_found", err)
	}
	_, err = client.FleetStats(ctx, loopscope.FleetStatsQuery{Metric: "bogus"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_param" {
		t.Errorf("unknown metric: err = %v, want 400 bad_param", err)
	}
	_, err = client.FleetStats(ctx, loopscope.FleetStatsQuery{Window: "yesterdayish"})
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_param" {
		t.Errorf("bad window: err = %v, want bad_param", err)
	}

	for _, bad := range []string{
		"/api/v1/fleet/loops?limit=0",
		"/api/v1/fleet/loops?limit=1&limit=2",
		"/api/v1/fleet/loops?limit=%zz",
		"/api/v1/fleet/loops?bogus%zz=1",
		"/api/v1/fleet/loops?limit=5;x=1",
		"/api/v1/fleet/loops?nonsense=1",
		"/api/v1/fleet/vantages?x=y",
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		dec := json.NewDecoder(resp.Body)
		if err := dec.Decode(&eb); err != nil {
			t.Fatalf("%s: decoding error body: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != "bad_param" {
			t.Errorf("%s: got %d %q, want 400 bad_param", bad, resp.StatusCode, eb.Error.Code)
		}
	}
}

// The push transport accepts the daemon's webhook payload, reports
// duplicates as accepted=false (success, not error), and rejects
// non-events.
func TestIngestEndpoint(t *testing.T) {
	a, ts, _ := fleetServer(t)
	ev := mkEvent("bb9", "tap", "10.5.5.0/24", "push1", sec(1), sec(30), 4)
	body, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	post := func(b []byte) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&env)
		return resp, env
	}

	resp, env := post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d, body %v", resp.StatusCode, env)
	}
	var res loopscope.IngestReply
	if err := json.Unmarshal(env["data"], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.Vantage != "bb9" || res.ID != "push1" {
		t.Errorf("ingest result = %+v, want accepted from bb9", res)
	}
	if !a.KnownVantage("bb9") {
		t.Error("vantage bb9 not registered after push")
	}

	// Webhook redelivery: success, accepted=false.
	resp, env = post(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redelivery status = %d", resp.StatusCode)
	}
	json.Unmarshal(env["data"], &res)
	if res.Accepted {
		t.Error("redelivery reported accepted=true, want duplicate suppression")
	}

	// Garbage bodies are bad_param, not 500s.
	resp, env = post([]byte("definitely not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = post([]byte(`{"source":"x"}`)) // no event ID
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ID-less event: status %d, want 400", resp.StatusCode)
	}
}

func TestAggHealthEndpoint(t *testing.T) {
	health := resil.NewHealthSet(nil)
	health.Set("journal", resil.Degraded)
	a := newTestAgg(t, Config{Health: health})
	for _, o := range []Observation{
		obs1("bb1", "10.1.2.0/24", "e1", sec(10), sec(40), 3),
		obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3),
		obs1("bb1", "10.9.9.0/24", "e3", sec(100), sec(130), 5),
		obs1("bb2", "10.1.2.0/24", "e2", sec(12), sec(41), 3), // duplicate
	} {
		if _, err := a.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Data loopscope.FleetHealth `json:"data"`
		Meta loopscope.Meta        `json:"meta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Meta.API != "v1" {
		t.Errorf("meta.api = %q, want v1", env.Meta.API)
	}
	// The pinned clock makes the uptime zero.
	want := loopscope.FleetHealth{
		Duplicates: 1, FleetLoops: 2, Health: map[string]string{"journal": "degraded"},
		Observations: 3, Status: "degraded", Vantages: 2,
	}
	if !reflect.DeepEqual(env.Data, want) {
		t.Errorf("health = %+v, want %+v", env.Data, want)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Errorf("content-type = %q", resp.Header.Get("Content-Type"))
	}
	got, err := loopscope.New(ts.URL).FleetHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("client.FleetHealth = %+v, want %+v", *got, want)
	}
}

// FuzzIngestBody: POST /api/v1/ingest never panics and never answers
// 5xx, whatever the body. It answers 200 exactly for a body that
// unmarshals as a loopscope.Event with an ID and a vantage (or source),
// which a fresh aggregator then accepts and lists among its vantages,
// its identities bounded to at most MaxIdents, ascending, each from the
// body.
func FuzzIngestBody(f *testing.F) {
	ev, _ := json.Marshal(mkEvent("bb9", "tap", "10.5.5.0/24", "push1", sec(1), sec(30), 4))
	for _, seed := range []string{string(ev), "", "null", "{}", `{"source":"x"}`, `{"id":"e"}`,
		`{"id":"e","source":"s","prefix":"not a prefix","startNs":-1,"endNs":-9}`,
		`{"id":"e","vantage":"v","prefix":"10.0.0.0/33","ttlDelta":-4,"prov":{"detectedNs":9}}`,
		`{"id":1}`, `[{"id":"e","source":"s"}]`, "definitely not json",
		`{"id":"e","source":"s","idents":[12,11,10,9,8,7,6,5,4,3,2,1,0,18446744073709551615]}`,
		`{"id":"e","source":"s","idents":[9,3,7,3]}`, `{"id":"e","source":"s","idents":[5,5,5,5,5,5,5,5,5,5]}`,
		`{"id":"e","source":"s","idents":[-1]}`, `{"id":"e","source":"s","idents":["7"]}`,
		`{"id":"e","source":"s","idents":[1.5]}`, `{"id":"e","source":"s","idents":[18446744073709551616]}`,
		`{"id":"e","source":"s","idents":7}`, `{"id":"e","source":"s","idents":[]}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newTestAgg(t, Config{}).Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return w
		}
		resp := do(http.MethodPost, "/api/v1/ingest", body)
		var ev loopscope.Event
		valid := json.Unmarshal(body, &ev) == nil && ev.ID != "" && (ev.Vantage != "" || ev.Source != "")
		if resp.Code >= 500 || (resp.Code == http.StatusOK) != valid {
			t.Fatalf("status %d for a body that is a valid event: %v (%s)", resp.Code, valid, resp.Body)
		}
		if !valid {
			return
		}
		var res struct{ Data loopscope.IngestReply }
		if err := json.Unmarshal(resp.Body.Bytes(), &res); err != nil || !res.Data.Accepted {
			t.Fatalf("200 with %s (%v), want a fresh event accepted", resp.Body, err)
		}
		var list struct {
			Data struct{ Vantages []loopscope.FleetVantage }
		}
		if err := json.Unmarshal(do(http.MethodGet, "/api/v1/fleet/vantages", nil).Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if v := list.Data.Vantages; len(v) != 1 || v[0].Name != res.Data.Vantage || v[0].Observations != 1 {
			t.Fatalf("vantages %+v after accepting an event from %q", v, res.Data.Vantage)
		}
		var loops struct{ Data loopscope.FleetLoopList }
		if err := json.Unmarshal(do(http.MethodGet, "/api/v1/fleet/loops", nil).Body.Bytes(), &loops); err != nil {
			t.Fatal(err)
		}
		ids := loops.Data.Loops[0].Evidence[0].Idents
		for i, id := range ids {
			if i >= loopscope.MaxIdents || i > 0 && ids[i-1] >= id || !slices.Contains(ev.Idents, id) {
				t.Fatalf("identities %v from a body carrying %v: want at most %d, ascending, each from the body", ids, ev.Idents, loopscope.MaxIdents)
			}
		}
	})
}

// A fresh aggregator's status page says it has no latency yet, and its
// health table lists only the components that are not healthy.
func TestAggStatuszEmpty(t *testing.T) {
	health := resil.NewHealthSet(nil)
	health.Set("journal", resil.Healthy)
	health.Set("vantage:bb1", resil.Degraded)
	a := newTestAgg(t, Config{Health: health})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	for _, want := range []string{"no provenance-carrying observations yet", "component health", "vantage:bb1", "degraded"} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	if strings.Contains(page, "journal") {
		t.Error("statusz lists the healthy journal component")
	}
}
