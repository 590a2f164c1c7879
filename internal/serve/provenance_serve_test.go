package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"loopscope/internal/obs/provenance"
)

// TestProvenancePushPullIdenticalRecords is the transport-parity
// acceptance test: the webhook payload (push) and the ring copy the
// HTTP API serves (pull) must carry the same hop record for the same
// event — identical stamp for stamp, except webhook_sent, which only
// the push transport can have. Both copies must carry the journaled
// stamp, because publish journals before either transport sees the
// event.
func TestProvenancePushPullIdenticalRecords(t *testing.T) {
	recs := serveTestTrace(t, 11, 8)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	var mu sync.Mutex
	pushed := map[string]*provenance.Record{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var e Event
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("bad webhook body: %v", err)
			return
		}
		mu.Lock()
		pushed[e.ID] = e.Prov
		mu.Unlock()
	}))
	defer srv.Close()

	journal := filepath.Join(dir, "loops.jsonl")
	d := newTestDaemon(t, journal, filepath.Join(dir, "cp.json"))
	d.AddSink(NewWebhook(WebhookOptions{URL: srv.URL}))
	if err := d.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	pulled := d.ring.pageAfter(0, ringSize, nil).Events
	if len(pulled) == 0 {
		t.Fatal("ring holds no events; trace too quiet")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, le := range pulled {
		e := le.Event
		p := e.Prov
		if p == nil {
			t.Fatalf("ring event %s has no provenance", e.ID)
		}
		if p.DetectedNs <= 0 || p.PublishedNs <= 0 || p.JournaledNs <= 0 {
			t.Fatalf("ring event %s missing local stamps: %+v", e.ID, p)
		}
		if p.DetectedNs > p.PublishedNs || p.PublishedNs > p.JournaledNs {
			t.Fatalf("ring event %s stamps out of order: %+v", e.ID, p)
		}
		if p.WebhookSentNs != 0 || p.IngestedNs != 0 || p.ClusteredNs != 0 {
			t.Fatalf("ring event %s carries downstream stamps it cannot have: %+v", e.ID, p)
		}
		wp := pushed[e.ID]
		if wp == nil {
			t.Fatalf("event %s never arrived via webhook", e.ID)
		}
		if wp.WebhookSentNs < wp.PublishedNs {
			t.Fatalf("webhook stamp precedes publish for %s: %+v", e.ID, wp)
		}
		// Identical modulo the transport-specific stamp.
		norm := *wp
		norm.WebhookSentNs = 0
		if norm != *p {
			t.Fatalf("push and pull hop records differ for %s:\npush %+v\npull %+v", e.ID, norm, p)
		}
	}

	// The journal line is written before its own completion stamp can
	// exist: it must carry detected+published and nothing later.
	for _, e := range journalEvents(t, journal) {
		p := e.Prov
		if p == nil || p.DetectedNs <= 0 || p.PublishedNs <= 0 {
			t.Fatalf("journal line %s missing detect/publish stamps: %+v", e.ID, p)
		}
		if p.JournaledNs != 0 || p.WebhookSentNs != 0 {
			t.Fatalf("journal line %s carries stamps taken after it was written: %+v", e.ID, p)
		}
	}
}
