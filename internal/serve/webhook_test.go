package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"loopscope/internal/obs"
	"loopscope/internal/resil"
)

func TestWebhookDelivers(t *testing.T) {
	obs.VerifyNoLeaks(t)
	var mu sync.Mutex
	var got []Event
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var e Event
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("bad webhook body: %v", err)
		}
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	w := NewWebhook(WebhookOptions{URL: srv.URL, Metrics: reg})
	for i := 0; i < 10; i++ {
		w.Publish(testEvent(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10", len(got))
	}
	if v := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDelivered, "sink", "webhook")).Value(); v != 10 {
		t.Fatalf("delivered counter = %d", v)
	}
}

// TestWebhookFailingEndpointNeverBlocks is the acceptance criterion:
// with the endpoint down, Publish must stay non-blocking — the queue
// bounds memory, overflow is dropped and counted, detection never
// stalls.
func TestWebhookFailingEndpointNeverBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	w := NewWebhook(WebhookOptions{
		URL:        "http://127.0.0.1:1/unreachable", // connection refused
		QueueSize:  4,
		MaxRetries: 3,
		Backoff:    resil.Policy{Base: 50 * time.Millisecond},
		Timeout:    100 * time.Millisecond,
		Metrics:    reg,
	})

	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			w.Publish(testEvent(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a failing endpoint")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	w.Close(ctx)

	dropped := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDropped, "sink", "webhook")).Value()
	if dropped == 0 {
		t.Fatal("no drops counted despite a dead endpoint and a full queue")
	}
	delivered := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDelivered, "sink", "webhook")).Value()
	if delivered != 0 {
		t.Fatalf("delivered %d to an unreachable endpoint", delivered)
	}
}

func TestWebhookRetriesThenSucceeds(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	delivered := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		delivered++
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	w := NewWebhook(WebhookOptions{
		URL:     srv.URL,
		Backoff: resil.Policy{Base: 10 * time.Millisecond},
		Metrics: reg,
	})
	w.Publish(testEvent(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if v := reg.Counter(obs.LabelMetric(obs.MetricServeSinkRetries, "sink", "webhook")).Value(); v < 2 {
		t.Fatalf("retries counter = %d, want >= 2", v)
	}
}

func TestWebhookPublishAfterCloseDrops(t *testing.T) {
	w := NewWebhook(WebhookOptions{URL: "http://127.0.0.1:1/x"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	w.Close(ctx)
	// Must not panic or block.
	w.Publish(testEvent(0))
}

// TestWebhookReusesConnection: every delivery rides one keep-alive
// connection. The endpoint replies with a body, as the aggregator's
// ingest does; a reply closed unread would cost a connection per event.
func TestWebhookReusesConnection(t *testing.T) {
	obs.VerifyNoLeaks(t)
	var mu sync.Mutex
	conns, got := 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		got++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"data":{"id":"x","accepted":true}}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	const n = 50
	w := NewWebhook(WebhookOptions{URL: srv.URL, QueueSize: n})
	for i := 0; i < n; i++ {
		w.Publish(testEvent(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != n || conns != 1 {
		t.Fatalf("%d deliveries on %d connections, want %d on 1", got, conns, n)
	}
}

// TestWebhookBoundsReply: an endpoint that never stops replying holds
// the worker for a bounded read, not until the POST times out.
func TestWebhookBoundsReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 4096)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	w := NewWebhook(WebhookOptions{URL: srv.URL, Timeout: time.Minute, Metrics: reg})
	w.Publish(testEvent(0))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if v := reg.Counter(obs.LabelMetric(obs.MetricServeSinkDelivered, "sink", "webhook")).Value(); v != 1 {
		t.Fatalf("delivered counter = %d, want 1", v)
	}
}
