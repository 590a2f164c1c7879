package agg

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"loopscope/internal/api"
	"loopscope/internal/serve"
	"loopscope/pkg/loopscope"
)

// fakeDaemon serves the events it publishes through the daemon's
// /api/v1/loops contract (envelope, cursor pagination newest first,
// vantage meta), capped at a tiny page size so the poller's multi-page
// walk is actually exercised.
type fakeDaemon struct {
	events  []loopscope.LoopEvent // in publish order: events[i].Seq is i+1
	vantage string
	pageCap int
}

func (f *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/loops", func(w http.ResponseWriter, r *http.Request) {
		limit := f.pageCap
		var cursor int64
		if v := r.URL.Query().Get("cursor"); v != "" {
			cursor, _ = strconv.ParseInt(v, 10, 64)
		}
		total := int64(len(f.events))
		if cursor <= 0 || cursor > total {
			cursor = total
		}
		list := loopscope.EventList{Events: []loopscope.LoopEvent{}}
		meta := loopscope.Meta{Vantage: f.vantage, Total: &total}
		for seq := cursor; seq > 0; seq-- {
			if len(list.Events) == limit {
				meta.NextCursor = &seq
				break
			}
			list.Events = append(list.Events, f.events[seq-1])
		}
		api.WriteOK(w, http.StatusOK, list, meta)
	})
	return mux
}

func (f *fakeDaemon) publish(prefix, id string, startNs, endNs int64, ttlDelta int) {
	f.events = append(f.events, loopscope.LoopEvent{Seq: int64(len(f.events) + 1), Event: serve.Event{
		ID: id, Source: "tap", Vantage: f.vantage, Prefix: prefix,
		StartNs: startNs, EndNs: endNs, DurationNs: endNs - startNs,
		Streams: 2, Replicas: 8, TTLDelta: ttlDelta,
	}})
}

func TestPollWalksPagesAndResumes(t *testing.T) {
	fd := &fakeDaemon{vantage: "bb1", pageCap: 2}
	for i := 0; i < 5; i++ {
		fd.publish("10.1.2.0/24", "e"+strconv.Itoa(i), sec(int64(i*1000)), sec(int64(i*1000+10)), 3)
	}
	ts := httptest.NewServer(fd.handler())
	defer ts.Close()

	a := newTestAgg(t, Config{})
	client := loopscope.New(ts.URL)
	target := PollTarget{Name: "target0", URL: ts.URL}
	name, err := a.pollRound(context.Background(), client, target)
	if err != nil {
		t.Fatalf("pollRound: %v", err)
	}
	// The daemon's own vantage identity supersedes the target label.
	if name != "bb1" {
		t.Errorf("resolved name = %q, want discovered vantage bb1", name)
	}
	vs := a.vantageList()
	if len(vs) != 1 || vs[0].Name != "bb1" || vs[0].Observations != 5 {
		t.Fatalf("after first poll: vantages = %+v, want bb1 with 5 observations", vs)
	}
	if got := a.cursorNow("bb1"); got != 5 {
		t.Errorf("cursor = %d, want 5", got)
	}
	if got := vs[0].Transports; len(got) != 1 || got[0] != transportPull {
		t.Errorf("transports = %v, want [pull]", got)
	}

	// Steady state: nothing new, nothing re-ingested.
	if _, err := a.pollRound(context.Background(), client, PollTarget{Name: "bb1", URL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	if vs := a.vantageList(); vs[0].Observations != 5 || vs[0].Duplicates != 0 {
		t.Errorf("steady-state poll changed counts: %+v", vs[0])
	}

	// Two more events arrive; the next round picks up exactly those.
	fd.publish("10.9.9.0/24", "e5", sec(9000), sec(9010), 5)
	fd.publish("10.9.9.0/24", "e6", sec(9010), sec(9020), 5)
	if _, err := a.pollRound(context.Background(), client, PollTarget{Name: "bb1", URL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	if vs := a.vantageList(); vs[0].Observations != 7 {
		t.Errorf("after catch-up: %d observations, want 7", vs[0].Observations)
	}
	if got := a.cursorNow("bb1"); got != 7 {
		t.Errorf("cursor = %d, want 7", got)
	}
}

// A daemon restart resets its ring sequence numbers; the poller
// detects total < cursor, refetches from scratch, and the seen-set
// absorbs the overlap.
func TestPollDaemonRestartResetsCursor(t *testing.T) {
	fd := &fakeDaemon{vantage: "bb1", pageCap: 100}
	for i := 0; i < 4; i++ {
		fd.publish("10.1.2.0/24", "e"+strconv.Itoa(i), sec(int64(i*1000)), sec(int64(i*1000+10)), 3)
	}
	ts := httptest.NewServer(fd.handler())
	defer ts.Close()
	a := newTestAgg(t, Config{})
	client := loopscope.New(ts.URL)
	if _, err := a.pollRound(context.Background(), client, PollTarget{Name: "bb1", URL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	if got := a.cursorNow("bb1"); got != 4 {
		t.Fatalf("cursor = %d, want 4", got)
	}

	// "Restart": fresh ring, same daemon, two events — one old (same
	// ID, deduped) and one genuinely new.
	fd.events = nil
	fd.publish("10.1.2.0/24", "e3", sec(3000), sec(3010), 3)
	fd.publish("10.8.8.0/24", "new", sec(9000), sec(9010), 4)
	if _, err := a.pollRound(context.Background(), client, PollTarget{Name: "bb1", URL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	vs := a.vantageList()
	if vs[0].Observations != 5 || vs[0].Duplicates != 1 {
		t.Errorf("after restart refetch: %d obs / %d dups, want 5/1", vs[0].Observations, vs[0].Duplicates)
	}
	if got := a.cursorNow("bb1"); got != 2 {
		t.Errorf("cursor = %d, want reset ring's 2", got)
	}
}

// Poll failures degrade the vantage's standing instead of crashing
// the round loop, and recovery clears the error.
func TestPollErrorDegradesVantage(t *testing.T) {
	a := newTestAgg(t, Config{})
	dead := loopscope.New("http://127.0.0.1:1") // nothing listens here
	if _, err := a.pollRound(context.Background(), dead, PollTarget{Name: "bb1", URL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("want error polling a dead daemon")
	}
	vs := a.vantageList()
	if len(vs) != 1 || vs[0].LastErr == "" {
		t.Fatalf("vantage standing after failed poll = %+v, want lastError set", vs)
	}

	fd := &fakeDaemon{vantage: "bb1", pageCap: 100}
	ts := httptest.NewServer(fd.handler())
	defer ts.Close()
	if _, err := a.pollRound(context.Background(), loopscope.New(ts.URL), PollTarget{Name: "bb1", URL: ts.URL}); err != nil {
		t.Fatal(err)
	}
	if vs := a.vantageList(); vs[0].LastErr != "" {
		t.Errorf("lastError survives recovery: %+v", vs[0])
	}
}
