package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"loopscope/internal/resil"
)

func TestPlanWindow(t *testing.T) {
	boom := errors.New("boom")
	p := NewPlan(1, Rule{Op: resil.OpJournalWrite, Start: 2, End: 4, Prob: 1, Err: boom})
	var fails []int
	for i := 0; i < 6; i++ {
		if err := p.Fault(resil.OpJournalWrite); err != nil {
			if !errors.Is(err, errInjected) || !errors.Is(err, boom) {
				t.Fatalf("invocation %d: error %v does not wrap errInjected and the rule error", i, err)
			}
			fails = append(fails, i)
		}
	}
	if len(fails) != 2 || fails[0] != 2 || fails[1] != 3 {
		t.Fatalf("faults fired at %v, want [2 3]", fails)
	}
	if got := p.count[resil.OpJournalWrite]; got != 6 {
		t.Fatalf("%d invocations, want 6", got)
	}
}

func TestPlanUnboundedWindow(t *testing.T) {
	p := NewPlan(1, Rule{Op: resil.OpWebhookPost, Start: 1, Prob: 1, Err: errors.New("x")})
	if err := p.Fault(resil.OpWebhookPost); err != nil {
		t.Fatal("invocation 0 fired before Start")
	}
	for i := 1; i < 10; i++ {
		if err := p.Fault(resil.OpWebhookPost); err == nil {
			t.Fatalf("invocation %d: unbounded rule did not fire", i)
		}
	}
}

func TestPlanOpsIndependent(t *testing.T) {
	// Only the targeted op faults; other ops never see the rule.
	p := NewPlan(1, Rule{Op: resil.OpJournalWrite, Prob: 1, Err: errors.New("x")})
	for i := 0; i < 5; i++ {
		if err := p.Fault(resil.OpCheckpointSave); err != nil {
			t.Fatal("rule leaked onto another op")
		}
	}
	if err := p.Fault(resil.OpJournalWrite); err == nil {
		t.Fatal("targeted op did not fault")
	}
}

func TestPlanDeterministicPerOp(t *testing.T) {
	// The per-op fault sequence must not depend on interleaving with
	// other ops: run the same probabilistic rule with and without a
	// competing op racing draws, and require identical firing patterns.
	rules := []Rule{
		{Op: resil.OpJournalWrite, Prob: 0.3, Err: errors.New("x")},
		{Op: resil.OpWebhookPost, Prob: 0.7, Err: errors.New("y")},
	}
	pattern := func(interleave bool) []bool {
		p := NewPlan(99, rules...)
		var out []bool
		for i := 0; i < 100; i++ {
			if interleave {
				p.Fault(resil.OpWebhookPost)
				p.Fault(resil.OpWebhookPost)
			}
			out = append(out, p.Fault(resil.OpJournalWrite) != nil)
		}
		return out
	}
	solo, raced := pattern(false), pattern(true)
	for i := range solo {
		if solo[i] != raced[i] {
			t.Fatalf("invocation %d: journal fault pattern changed when webhook draws interleaved", i)
		}
	}
	fired := 0
	for _, f := range solo {
		if f {
			fired++
		}
	}
	if fired < 10 || fired > 60 {
		t.Fatalf("Prob 0.3 fired %d/100 times; draw looks broken", fired)
	}
}

func TestPlanDelayOnly(t *testing.T) {
	p := NewPlan(1, Rule{Op: resil.OpWebhookPost, Prob: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := p.Fault(resil.OpWebhookPost); err != nil {
		t.Fatalf("delay-only rule returned error %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delay-only rule slept %v, want >= 20ms", elapsed)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	p := NewPlan(1, Rule{Op: resil.OpJournalWrite, Prob: 0.5, Err: errors.New("x")})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Fault(resil.OpJournalWrite)
			}
		}()
	}
	wg.Wait()
	if got := p.count[resil.OpJournalWrite]; got != 1600 {
		t.Fatalf("%d invocations, want 1600", got)
	}
}

func TestPlanWriteLog(t *testing.T) {
	p := NewPlan(1, Rule{Op: resil.OpJournalWrite, End: 3, Prob: 1, Err: errors.New("enospc")})
	for i := 0; i < 5; i++ {
		p.Fault(resil.OpJournalWrite)
	}
	if got := len(p.Log()); got != 3 {
		t.Fatalf("log has %d records, want 3", got)
	}
	path := filepath.Join(t.TempDir(), "faults.jsonl")
	if err := p.WriteLog(path); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("log file has %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"journal.write"`) || !strings.Contains(lines[0], "enospc") {
		t.Fatalf("log line missing op/err: %s", lines[0])
	}
}
