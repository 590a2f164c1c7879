package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"loopscope/internal/resil"
	"loopscope/internal/stats"
)

// errInjected is the base error every injected fault wraps, so tests
// and logs can tell a chaos-made failure from a real one with
// errors.Is.
var errInjected = errors.New("chaos: injected fault")

// Rule schedules faults for one operation. Invocations of the
// operation are counted from zero; the rule applies inside the
// half-open window [Start, End) (End 0 means unbounded), firing with
// probability Prob on each invocation in the window.
type Rule struct {
	// Op is the injection point the rule targets.
	Op resil.Op
	// Start and End bound the invocation window [Start, End); End 0
	// leaves the window open-ended.
	Start, End int64
	// Prob is the per-invocation fault probability in (0, 1]; values
	// above 1 always fire.
	Prob float64
	// Err is the fault to inject, wrapped together with errInjected.
	// A nil Err with a positive Delay injects latency only.
	Err error
	// Delay, when positive, is slept before returning — a slow
	// dependency rather than (or in addition to) a failing one.
	Delay time.Duration
}

// FaultRecord is one injected fault, kept for the plan's log.
type FaultRecord struct {
	Op         string    `json:"op"`
	Invocation int64     `json:"invocation"`
	Err        string    `json:"err,omitempty"`
	DelayMs    int64     `json:"delay_ms,omitempty"`
	At         time.Time `json:"at"`
}

// Plan is a seeded, deterministic runtime fault schedule implementing
// resil.Injector. Each operation keeps its own invocation counter and
// its own RNG (derived from the plan seed and the op name), so whether
// the journal's 37th write fails does not depend on how many webhook
// posts raced ahead of it — the fault sequence per component is a pure
// function of (seed, rules), which is what lets a chaos soak compare
// runs.
type Plan struct {
	rules []Rule

	mu    sync.Mutex
	seed  uint64
	count map[resil.Op]int64
	rngs  map[resil.Op]*stats.RNG
	log   []FaultRecord
}

// NewPlan returns a Plan injecting faults per rules, with all draws
// derived from seed.
func NewPlan(seed uint64, rules ...Rule) *Plan {
	return &Plan{
		rules: rules,
		seed:  seed,
		count: make(map[resil.Op]int64),
		rngs:  make(map[resil.Op]*stats.RNG),
	}
}

// opRNG returns the op's RNG, creating it from the plan seed and the
// op name on first use. Caller holds the lock.
func (p *Plan) opRNG(op resil.Op) *stats.RNG {
	rng, ok := p.rngs[op]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(op))
		rng = stats.NewRNG(p.seed ^ h.Sum64())
		p.rngs[op] = rng
	}
	return rng
}

// Fault implements resil.Injector.
func (p *Plan) Fault(op resil.Op) error {
	p.mu.Lock()
	n := p.count[op]
	p.count[op] = n + 1

	var fire *Rule
	for i := range p.rules {
		r := &p.rules[i]
		if r.Op != op || n < r.Start || (r.End > 0 && n >= r.End) {
			continue
		}
		if r.Prob < 1 && !p.opRNG(op).Bool(r.Prob) {
			continue
		}
		fire = r
		break
	}
	var rec FaultRecord
	if fire != nil {
		rec = FaultRecord{Op: string(op), Invocation: n, DelayMs: fire.Delay.Milliseconds(), At: time.Now().UTC()}
		if fire.Err != nil {
			rec.Err = fire.Err.Error()
		}
		p.log = append(p.log, rec)
	}
	p.mu.Unlock()

	if fire == nil {
		return nil
	}
	if fire.Delay > 0 {
		time.Sleep(fire.Delay)
	}
	if fire.Err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s invocation %d: %w", errInjected, op, n, fire.Err)
}

// Log returns a copy of the faults injected so far, in order.
func (p *Plan) Log() []FaultRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]FaultRecord, len(p.log))
	copy(out, p.log)
	return out
}

// WriteLog writes the fault log as JSONL to path — the artifact the
// chaos-soak CI job archives so a failing run can be replayed by hand.
func (p *Plan) WriteLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, rec := range p.Log() {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
