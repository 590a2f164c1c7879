package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"loopscope/internal/chaos"
	"loopscope/internal/core"
	"loopscope/internal/obs"
	"loopscope/internal/resil"
)

// soakDaemon builds one daemon over tracePath with a journal sink and,
// optionally, a fault plan and a webhook sink.
func soakDaemon(t *testing.T, tracePath, journalPath, cpPath string, inj resil.Injector, webhookURL string) (*Daemon, *Journal) {
	t.Helper()
	d, err := New(Config{
		Detector:           core.DefaultConfig(),
		CheckpointPath:     cpPath,
		CheckpointInterval: 10 * time.Millisecond,
		DrainTimeout:       10 * time.Second,
		ExitIdle:           300 * time.Millisecond,
		TailPoll:           2 * time.Millisecond,
		FaultInjector:      inj,
		RestartPolicy:      resil.Policy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond, ResetAfter: time.Hour},
		Metrics:            obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJournal(JournalOptions{
		Path:     journalPath,
		Injector: inj,
		Health:   d.Health(),
		Metrics:  d.cfg.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AddSink(j)
	if webhookURL != "" {
		d.AddSink(NewWebhook(WebhookOptions{
			URL:        webhookURL,
			MaxRetries: 2,
			Backoff:    resil.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
			Breaker:    resil.BreakerConfig{FailureThreshold: 3, OpenFor: 20 * time.Millisecond},
			Injector:   inj,
			Health:     d.Health(),
			Metrics:    d.cfg.Metrics,
		}))
	}
	if err := d.AddTailSource("src", tracePath); err != nil {
		t.Fatal(err)
	}
	return d, j
}

// TestChaosSoakEquivalence is the tentpole's acceptance test: run the
// same trace twice — once clean, once under a seeded fault plan that
// fails journal writes (an ENOSPC window), fails checkpoint saves,
// flaps the source mid-stream, and degrades the webhook — and prove
// the faulted daemon converges to the byte-identical final loop set,
// with zero duplicate journal lines and zero leaked goroutines.
func TestChaosSoakEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	obs.VerifyNoLeaks(t)

	recs := serveTestTrace(t, 21, 10)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "capture.lspt")
	writeTraceFile(t, tracePath, testMeta(), recs)

	deadline := 90 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	// Reference: one clean run.
	refJournal := filepath.Join(dir, "ref.jsonl")
	ref, _ := soakDaemon(t, tracePath, refJournal, filepath.Join(dir, "ref-cp.json"), nil, "")
	if err := ref.Run(ctx); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refFinals := finalIDSet(t, journalEvents(t, refJournal))
	if len(refFinals) == 0 {
		t.Fatal("reference run journaled no final loops; trace too quiet")
	}

	// A webhook endpoint that flaps: every third request fails.
	var whN int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		whN++
		if whN%3 == 0 {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	// The fault plan: every component misbehaves, all of it seeded and
	// windowed so the storm passes and recovery is reachable.
	plan := chaos.NewPlan(42,
		// ENOSPC window: journal writes 5-25 fail outright.
		chaos.Rule{Op: resil.OpJournalWrite, Start: 5, End: 25, Prob: 1, Err: syscall.ENOSPC},
		// Then a flaky patch: 30% of writes 25-60 fail.
		chaos.Rule{Op: resil.OpJournalWrite, Start: 25, End: 60, Prob: 0.3, Err: errors.New("disk glitch")},
		// Half the first 40 checkpoint saves fail.
		chaos.Rule{Op: resil.OpCheckpointSave, Start: 0, End: 40, Prob: 0.5, Err: errors.New("checkpoint device error")},
		// The source flaps rarely but repeatedly across the whole read.
		chaos.Rule{Op: resil.OpSourceRead, Start: 100, End: 20000, Prob: 0.001, Err: errors.New("read torn away")},
		// A third of webhook posts during the early window are slow and fail.
		chaos.Rule{Op: resil.OpWebhookPost, Start: 0, End: 50, Prob: 0.33, Err: errors.New("webhook timeout"), Delay: time.Millisecond},
	)

	chaosJournal := filepath.Join(dir, "chaos.jsonl")
	d, j := soakDaemon(t, tracePath, chaosJournal, filepath.Join(dir, "chaos-cp.json"), plan, srv.URL)
	start := time.Now()
	if err := d.Run(ctx); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > deadline {
		t.Fatalf("chaos run took %v, beyond the %v recovery deadline", elapsed, deadline)
	}

	// The plan must actually have fired — a soak that injected nothing
	// proves nothing.
	faults := plan.Log()
	if len(faults) == 0 {
		t.Fatal("fault plan injected nothing; the soak did not exercise the resilience layer")
	}
	ops := map[string]int{}
	for _, f := range faults {
		ops[f.Op]++
	}
	for _, op := range []resil.Op{resil.OpJournalWrite, resil.OpCheckpointSave, resil.OpWebhookPost} {
		if ops[string(op)] == 0 {
			t.Errorf("no %s faults fired; widen the plan windows", op)
		}
	}
	if path := os.Getenv("CHAOS_SOAK_LOG"); path != "" {
		if err := plan.WriteLog(path); err != nil {
			t.Errorf("writing fault log: %v", err)
		}
	}
	j.mu.Lock()
	pending := len(j.pending)
	j.mu.Unlock()
	t.Logf("soak injected %d faults across %d ops; journal pending at close: %d", len(faults), len(ops), pending)

	// Equivalence: the faulted run's final loop set must be exactly the
	// clean run's — no loss through the ENOSPC window, no duplicates
	// through the restarts.
	chaosFinals := finalIDSet(t, journalEvents(t, chaosJournal))
	for id := range refFinals {
		if !chaosFinals[id] {
			t.Errorf("final loop %s missing from the chaos run's journal", id)
		}
	}
	for id := range chaosFinals {
		if !refFinals[id] {
			t.Errorf("chaos run journaled final loop %s the clean run did not", id)
		}
	}
}
