package resil

import (
	"errors"
	"testing"
	"time"
)

func TestRetrierEscalatesToMax(t *testing.T) {
	r := NewRetrier(Policy{Base: 100 * time.Millisecond, Max: 1 * time.Second, Factor: 2}, 1)
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second,
		1 * time.Second,
	}
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("attempt %d: delay = %v, want %v", i, got, w)
		}
	}
}

func TestRetrierJitterWithinBounds(t *testing.T) {
	// The documented jitter range is [d/2, d]. Drive many draws at each
	// escalation step and check every one.
	for seed := uint64(1); seed <= 5; seed++ {
		r := NewRetrier(Policy{Base: 500 * time.Millisecond, Max: 30 * time.Second, Factor: 2, Jitter: true}, seed)
		for i := 0; i < 200; i++ {
			d := r.Peek()
			got := r.Next()
			if got < d/2 || got > d {
				t.Fatalf("seed %d attempt %d: jittered delay %v outside [%v, %v]", seed, i, got, d/2, d)
			}
		}
	}
}

func TestRetrierDeterministicPerSeed(t *testing.T) {
	pol := Policy{Base: 500 * time.Millisecond, Jitter: true}
	a := NewRetrier(pol, 42)
	b := NewRetrier(pol, 42)
	for i := 0; i < 50; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
}

func TestRetrierReset(t *testing.T) {
	r := NewRetrier(Policy{Base: 100 * time.Millisecond, Max: 10 * time.Second, Factor: 2}, 1)
	for i := 0; i < 4; i++ {
		r.Next()
	}
	if r.Peek() == 100*time.Millisecond {
		t.Fatal("schedule did not escalate")
	}
	r.Reset()
	if got := r.Next(); got != 100*time.Millisecond {
		t.Fatalf("after Reset, delay = %v, want Base", got)
	}
}

func TestRetrierMaybeReset(t *testing.T) {
	r := NewRetrier(Policy{Base: 100 * time.Millisecond, Max: 10 * time.Second, Factor: 2, ResetAfter: time.Minute}, 1)
	for i := 0; i < 5; i++ {
		r.Next()
	}
	if r.MaybeReset(30 * time.Second) {
		t.Fatal("MaybeReset fired below ResetAfter")
	}
	if r.Peek() == 100*time.Millisecond {
		t.Fatal("schedule reset without a healthy interval")
	}
	if !r.MaybeReset(2 * time.Minute) {
		t.Fatal("MaybeReset did not fire above ResetAfter")
	}
	if got := r.Peek(); got != 100*time.Millisecond {
		t.Fatalf("after MaybeReset, delay = %v, want Base", got)
	}

	// Zero ResetAfter never resets.
	r2 := NewRetrier(Policy{Base: 100 * time.Millisecond}, 1)
	r2.Next()
	r2.Next()
	if r2.MaybeReset(time.Hour) {
		t.Fatal("MaybeReset fired with zero ResetAfter")
	}
}

func TestRetrierConstantInterval(t *testing.T) {
	// Factor 1 without jitter is a fixed poll interval — the tail
	// reader's default behavior must be reproducible exactly.
	r := NewRetrier(Policy{Base: 2 * time.Millisecond, Max: 2 * time.Millisecond, Factor: 1}, 7)
	for i := 0; i < 10; i++ {
		if got := r.Next(); got != 2*time.Millisecond {
			t.Fatalf("attempt %d: delay = %v, want constant 2ms", i, got)
		}
	}
}

func TestRetrierDefaults(t *testing.T) {
	r := NewRetrier(Policy{}, 1)
	if got := r.Next(); got != 500*time.Millisecond {
		t.Fatalf("default base = %v, want 500ms", got)
	}
	for i := 0; i < 20; i++ {
		r.Next()
	}
	if got := r.Peek(); got != 30*time.Second {
		t.Fatalf("default max = %v, want 30s", got)
	}
}

type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestBreakerTripsAndRecovers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var changes []BreakerState
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          10 * time.Second,
		OnChange:         func(s BreakerState) { changes = append(changes, s) },
		Now:              clk.Now,
	})

	if b.state != breakerClosed || !b.Allow() {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.Failure()
	b.Failure()
	if b.state != breakerClosed {
		t.Fatal("breaker tripped below threshold")
	}
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatal("breaker did not trip at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}

	clk.Advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("breaker re-probed before OpenFor elapsed")
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %v, want half-open", b.state)
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed while one is in flight")
	}
	b.Success()
	if b.state != breakerClosed {
		t.Fatal("breaker did not close after successful probe")
	}

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, breakerClosed}
	if len(changes) != len(want) {
		t.Fatalf("transitions = %v, want %v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, changes[i], want[i])
		}
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, Now: clk.Now})
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatal("breaker did not trip")
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	// The open window restarts from the probe failure.
	clk.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker re-probed before the restarted window elapsed")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused after restarted window")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.state != breakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Failure()
	if b.state != BreakerOpen {
		t.Fatal("three consecutive failures did not trip")
	}
}

func TestBreakerSuccessThreshold(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: time.Second, SuccessThreshold: 2, Now: clk.Now})
	b.Failure()
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Success()
	if b.state != BreakerHalfOpen {
		t.Fatal("breaker closed before SuccessThreshold")
	}
	if !b.Allow() {
		t.Fatal("second probe refused after first succeeded")
	}
	b.Success()
	if b.state != breakerClosed {
		t.Fatal("breaker did not close at SuccessThreshold")
	}
}

func TestHealthString(t *testing.T) {
	cases := map[Health]string{Healthy: "healthy", Degraded: "degraded", Failing: "failing", Health(9): "unknown"}
	for h, want := range cases {
		if got := h.String(); got != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), got, want)
		}
	}
}

func TestHealthSet(t *testing.T) {
	var events []string
	hs := NewHealthSet(func(c string, h Health) { events = append(events, c+"="+h.String()) })

	if hs.worst() != Healthy {
		t.Fatal("empty set not Healthy")
	}
	hs.Set("journal", Healthy)
	hs.Set("journal", Healthy) // no change: no event
	hs.Set("webhook", Degraded)
	hs.Set("webhook", Failing)
	if got := hs.Get("webhook"); got != Failing {
		t.Fatalf("Get(webhook) = %v, want Failing", got)
	}
	if got := hs.Get("never-set"); got != Healthy {
		t.Fatalf("Get(never-set) = %v, want Healthy", got)
	}
	if hs.worst() != Failing {
		t.Fatalf("Worst() = %v, want Failing", hs.worst())
	}
	snap := hs.Snapshot()
	if snap["journal"] != "healthy" || snap["webhook"] != "failing" {
		t.Fatalf("Snapshot() = %v", snap)
	}
	want := []string{"journal=healthy", "webhook=degraded", "webhook=failing"}
	if len(events) != len(want) {
		t.Fatalf("onChange events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, events[i], want[i])
		}
	}

	hs.Set("webhook", Healthy)
	if hs.worst() != Healthy {
		t.Fatalf("Worst() after recovery = %v, want Healthy", hs.worst())
	}
}

func TestHealthSetNilSafe(t *testing.T) {
	var hs *HealthSet
	hs.Set("x", Failing)
	if hs.Get("x") != Healthy || hs.worst() != Healthy || hs.Snapshot() != nil {
		t.Fatal("nil HealthSet not inert")
	}
}

type errInjector struct{ err error }

func (e errInjector) Fault(op Op) error { return e.err }

func TestInjectNilSafe(t *testing.T) {
	if err := Inject(nil, OpJournalWrite); err != nil {
		t.Fatalf("Inject(nil) = %v, want nil", err)
	}
	sentinel := errors.New("boom")
	if err := Inject(errInjector{sentinel}, OpJournalWrite); !errors.Is(err, sentinel) {
		t.Fatalf("Inject = %v, want sentinel", err)
	}
}
