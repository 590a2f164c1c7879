package serve

import (
	"context"
	"errors"
	"hash/fnv"
	"time"

	"loopscope/internal/resil"
)

// errRestart is returned by a source runner that wants an immediate
// (still jittered, but not escalating) restart: the condition is
// expected — a tailed file rotated — not a failure.
var errRestart = errors.New("serve: source requests restart")

// supervise runs one source's runner in a restart loop backed by the
// shared resil backoff policy: jittered exponential escalation (500ms
// doubling to 30s by default, shaped by Config.RestartPolicy) so a
// crash-looping source — a file with a corrupt header, a permission
// problem — costs polling, not a spin. A runner returning nil or
// ctx.Err() ends the loop; errRestart restarts promptly without
// escalating. A run that stays healthy past the policy's reset
// interval forgives the escalation, so a source that fails once a day
// restarts in 500ms, not 30s. Repeated failures mark the source
// degraded in the daemon's health set; a lasting recovery clears it.
func (d *Daemon) supervise(ctx context.Context, s *sourceState) {
	pol := d.cfg.RestartPolicy
	pol.Jitter = true
	if pol.ResetAfter <= 0 {
		pol.ResetAfter = 60 * time.Second
	}
	// Seeded per source name: deterministic under test, distinct
	// across sources so simultaneous failures don't restart in step.
	h := fnv.New64a()
	h.Write([]byte(s.name))
	r := resil.NewRetrier(pol, h.Sum64())
	component := "source:" + s.name
	for {
		runStart := time.Now()
		err := s.run(ctx)
		if ctx.Err() != nil || err == nil {
			return
		}
		if errors.Is(err, errTestCrash) {
			d.stop(err) // abrupt: no drain, no final checkpoint
			return
		}
		s.mu.Lock()
		s.restarts++
		s.lastErr = err.Error()
		s.status = "restarting"
		s.mu.Unlock()
		s.restartsC.Inc()
		if errors.Is(err, errRestart) {
			r.Reset()
			d.health.Set(component, resil.Healthy)
		} else {
			if r.MaybeReset(time.Since(runStart)) {
				// The failure follows a long healthy run: treat it as
				// fresh, not as a continuation of an old crash loop.
				d.health.Set(component, resil.Healthy)
			} else {
				d.health.Set(component, resil.Degraded)
			}
			d.log.Warn("source failed; restarting", "source", s.name, "err", err, "delay", r.Peek())
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(r.Next()):
		}
	}
}

// errTestCrash simulates an abrupt kill in tests: the daemon stops
// immediately, skipping graceful drain and the final checkpoint, as a
// SIGKILL would.
var errTestCrash = errors.New("serve: test crash")
