package bgp

import (
	"math"
	"time"

	"loopscope/internal/events"
	"loopscope/internal/netsim"
	"loopscope/internal/routing"
)

// Route-flap damping (RFC 2439 style). The paper's §II-B notes that
// "damping algorithms are used to prevent spurious updates,
// potentially delaying the propagation of updated information" — a
// convergence-time contributor and therefore a loop-duration
// contributor. Damping here applies to E-BGP-learned routes at the
// receiving border router: every flap (withdrawal, or re-advertisement
// after a withdrawal) adds a penalty that decays exponentially; past
// the suppress threshold the route is withheld from the decision
// process until the penalty decays below the reuse threshold.

// DampingConfig tunes route-flap damping. Zero value = disabled.
type DampingConfig struct {
	Enabled bool
	// Penalty added per flap.
	Penalty float64
	// Suppress threshold: at or above it the route is withheld.
	Suppress float64
	// Reuse threshold: once decay brings the penalty below it, a
	// withheld route is reinstated.
	Reuse float64
	// HalfLife of the exponential decay.
	HalfLife time.Duration
}

// DefaultDamping mirrors the classic cisco defaults, with the
// time constants scaled to simulation scale (seconds, not minutes).
func DefaultDamping() DampingConfig {
	return DampingConfig{
		Enabled:  true,
		Penalty:  1000,
		Suppress: 2000,
		Reuse:    750,
		HalfLife: 15 * time.Second,
	}
}

// dampState is the per-(peer, prefix) damping bookkeeping.
type dampState struct {
	penalty    float64
	lastDecay  time.Duration
	suppressed bool
	// held is the last advertisement received while suppressed (nil =
	// the prefix is withdrawn).
	held       *route
	reuseTimer bool
}

// decay brings the penalty current.
func (ds *dampState) decay(now time.Duration, half time.Duration) {
	if ds.penalty > 0 && now > ds.lastDecay {
		dt := float64(now-ds.lastDecay) / float64(half)
		ds.penalty *= math.Pow(0.5, dt)
	}
	ds.lastDecay = now
}

// dampKey identifies a damped (peer, prefix) pair.
type dampKey struct {
	peer   int
	prefix routing.Prefix
}

// applyDamping intercepts an incoming E-BGP update; it returns the
// update to apply now (possibly nil to treat as withdrawn) and whether
// the update was withheld.
func (s *Speaker) applyDamping(u update, ps *peerState) (apply *route, withheld bool) {
	cfg := s.p.cfg.Damping
	if !cfg.Enabled || !ps.ebgp {
		return u.route, false
	}
	now := s.p.net.Sim.Now()
	key := dampKey{peer: int(u.from), prefix: u.prefix}
	ds := s.damp[key]
	if ds == nil {
		ds = &dampState{lastDecay: now}
		s.damp[key] = ds
	}
	ds.decay(now, cfg.HalfLife)
	// A withdrawal is a flap; a re-advertisement after a withdrawal is
	// the other half of one. Penalise both edges (RFC 2439 penalises
	// withdrawals and attribute changes; an advertisement following a
	// withdrawal is a route change).
	ds.penalty += cfg.Penalty / 2

	if ds.penalty >= cfg.Suppress {
		ds.suppressed = true
	}
	if !ds.suppressed {
		return u.route, false
	}
	// Withheld: remember the latest state and make sure a reuse check
	// is pending.
	ds.held = u.route
	s.scheduleReuse(key, ds)
	s.p.net.Journal.Append(events.Event{
		At: now, Kind: events.BGPBestChanged, Node: s.r.Name,
		Subject: "damped", Prefixes: []routing.Prefix{u.prefix},
	})
	return nil, true
}

// scheduleReuse arms a timer that reinstates the held route once the
// penalty decays below the reuse threshold.
func (s *Speaker) scheduleReuse(key dampKey, ds *dampState) {
	if ds.reuseTimer {
		return
	}
	cfg := s.p.cfg.Damping
	// Time until penalty reaches the reuse threshold.
	wait := time.Duration(float64(cfg.HalfLife) * math.Log2(ds.penalty/cfg.Reuse))
	if wait < time.Second {
		wait = time.Second
	}
	ds.reuseTimer = true
	s.p.net.Sim.Schedule(wait, func() {
		ds.reuseTimer = false
		now := s.p.net.Sim.Now()
		ds.decay(now, cfg.HalfLife)
		if ds.penalty >= cfg.Reuse {
			s.scheduleReuse(key, ds)
			return
		}
		ds.suppressed = false
		// Reinstate the held state.
		if ds.held != nil {
			r := ds.held.clone()
			r.LocalPref = s.p.cfg.LocalPref
			r.Source = sourceEBGP
			r.From = netsim.NodeID(key.peer)
			s.setAdjIn(key.prefix, r.From, r)
		} else {
			s.clearAdjIn(key.prefix, netsim.NodeID(key.peer))
		}
		ds.held = nil
		s.decide(key.prefix)
	})
}
