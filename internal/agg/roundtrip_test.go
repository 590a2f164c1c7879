package agg

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"loopscope/internal/serve"
)

// End to end over the wire: the daemon's actual webhook sink delivers
// into the aggregator's actual ingest endpoint, and the evidence the
// fleet API serves carries the vantage attribution.
func TestWebhookPushIntoAggregator(t *testing.T) {
	a := newTestAgg(t, Config{})
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	hook := serve.NewWebhook(serve.WebhookOptions{
		URL: ts.URL + "/api/v1/ingest", Timeout: 5 * time.Second,
	})
	hook.Publish(serve.Event{
		ID: "push-e2e", Source: "tap3", Vantage: "bb2",
		Prefix: "10.1.2.0/24", StartNs: sec(5), EndNs: sec(25), DurationNs: sec(20),
		Streams: 2, Replicas: 9, TTLDelta: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hook.Close(ctx); err != nil {
		t.Fatalf("webhook drain: %v", err)
	}

	loops := a.FleetLoops()
	if len(loops) != 1 {
		t.Fatalf("got %d fleet loops after webhook push, want 1", len(loops))
	}
	ev := loops[0].Evidence[0]
	if ev.Vantage != "bb2" || ev.EventID != "push-e2e" || ev.Source != "tap3" {
		t.Errorf("evidence = %+v, want bb2/push-e2e/tap3", ev)
	}
	if vs := a.vantageList(); len(vs) != 1 || vs[0].Transports[0] != TransportPush {
		t.Errorf("vantage standing = %+v, want push transport for bb2", vs)
	}
}
