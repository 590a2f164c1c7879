package resil

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// breakerClosed: requests flow; consecutive failures are counted.
	breakerClosed BreakerState = iota
	// BreakerHalfOpen: the open period elapsed; a limited probe is
	// allowed through to test the backend.
	BreakerHalfOpen
	// BreakerOpen: requests are refused without touching the backend.
	BreakerOpen
)

// String returns the stable wire name.
func (s BreakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig configures NewBreaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the
	// breaker open (<= 0: 5).
	FailureThreshold int
	// OpenFor is how long the breaker refuses requests before allowing
	// a half-open probe (<= 0: 10s).
	OpenFor time.Duration
	// SuccessThreshold is how many consecutive half-open successes
	// close the breaker again (<= 0: 1).
	SuccessThreshold int
	// OnChange, when non-nil, observes every state transition.
	OnChange func(BreakerState)
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Breaker is a consecutive-failure circuit breaker: after
// FailureThreshold straight failures it opens and Allow refuses for
// OpenFor, after which one caller at a time is let through as a probe;
// SuccessThreshold probe successes close it, any probe failure
// re-opens it. It protects a failing backend (and the caller's retry
// budget) from being hammered while clearly advertising the outage
// through OnChange.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	failures  int
	successes int
	openedAt  time.Time
	probing   bool
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 10 * time.Second
	}
	if cfg.SuccessThreshold <= 0 {
		cfg.SuccessThreshold = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a request may proceed. While open it returns
// false until OpenFor has elapsed, then admits a single probe (the
// breaker moves to half-open); while half-open only one probe is in
// flight at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.setStateLocked(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a successful request.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.setStateLocked(breakerClosed)
		}
	case BreakerOpen:
		// A straggling in-flight success from before the trip: treat it
		// as evidence the backend recovered.
		b.setStateLocked(breakerClosed)
	}
}

// Failure reports a failed request.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.trip()
	}
}

// trip opens the breaker. Caller holds the lock.
func (b *Breaker) trip() {
	b.failures = 0
	b.successes = 0
	b.openedAt = b.cfg.Now()
	b.setStateLocked(BreakerOpen)
}

// setStateLocked transitions and notifies. Caller holds the lock; the
// callback runs under it so observers see transitions in order.
func (b *Breaker) setStateLocked(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if s != BreakerHalfOpen {
		b.successes = 0
	}
	if b.cfg.OnChange != nil {
		b.cfg.OnChange(s)
	}
}
