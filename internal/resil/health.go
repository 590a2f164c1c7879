package resil

import "sync"

// Health is a component's coarse operational state. The three-state
// ladder is deliberate: Healthy means "working", Degraded means
// "working but shedding quality" (retrying, backing off, evicting
// state), Failing means "not delivering its function right now"
// (breaker open, writes failing). /healthz reports the worst state
// across components so an operator's first glance already says how
// much to worry.
type Health int

const (
	Healthy Health = iota
	Degraded
	Failing
)

// String returns the stable wire name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failing:
		return "failing"
	}
	return "unknown"
}

// HealthSet tracks per-component health states. All methods are
// nil-safe no-ops on a nil receiver, so components accept an optional
// *HealthSet without guarding every call.
type HealthSet struct {
	mu       sync.Mutex
	m        map[string]Health
	onChange func(component string, h Health)
}

// NewHealthSet returns an empty set. onChange, when non-nil, is called
// (without the set's lock held consistently ordered per component)
// each time a component's state actually changes — the serve daemon
// uses it to mirror states into a metrics gauge.
func NewHealthSet(onChange func(component string, h Health)) *HealthSet {
	return &HealthSet{m: make(map[string]Health), onChange: onChange}
}

// Set records a component's state.
func (s *HealthSet) Set(component string, h Health) {
	if s == nil {
		return
	}
	s.mu.Lock()
	prev, ok := s.m[component]
	s.m[component] = h
	s.mu.Unlock()
	if s.onChange != nil && (!ok || prev != h) {
		s.onChange(component, h)
	}
}

// Get returns a component's state (Healthy when never set).
func (s *HealthSet) Get(component string) Health {
	if s == nil {
		return Healthy
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[component]
}

// Snapshot returns component -> state name for serialization.
func (s *HealthSet) Snapshot() map[string]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for c, h := range s.m {
		out[c] = h.String()
	}
	return out
}

// worst returns the worst state across all components (Healthy for an
// empty or nil set).
func (s *HealthSet) worst() Health {
	if s == nil {
		return Healthy
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	worst := Healthy
	for _, h := range s.m {
		if h > worst {
			worst = h
		}
	}
	return worst
}

// Status is the health documents' one-word rollup: "ok" while every
// component is healthy, else the worst state's name.
func (s *HealthSet) Status() string {
	if worst := s.worst(); worst != Healthy {
		return worst.String()
	}
	return "ok"
}
