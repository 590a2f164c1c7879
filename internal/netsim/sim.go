// Package netsim is a discrete-event simulator of an IP network: a
// virtual clock, routers that forward packets through longest-prefix-
// match FIBs with TTL decrement and ICMP error generation, and links
// with finite bandwidth, propagation delay and FIFO queues.
//
// It stands in for the Sprint backbone the paper measured. Routing
// protocols (internal/routing/igp, internal/routing/bgp) drive FIB
// updates with realistic timing skew, which is what creates the
// transient forwarding loops the detector looks for. The simulator
// also records ground truth — every packet that revisits a router —
// so detector accuracy can be verified, something the paper could not
// do without router update logs.
package netsim

import (
	"container/heap"
	"time"
)

// Time is simulated time, measured from the start of the run.
type Time = time.Duration

// event is one scheduled callback. seq breaks ties so that events
// scheduled earlier at the same instant run first (deterministic
// replay).
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now   Time
	queue eventHeap
	seq   uint64
}

// newSimulator returns a simulator at time zero with no pending
// events.
func newSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Schedule runs fn after delay. A negative delay is treated as zero.
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times before Now() are
// clamped to Now().
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.queue.pushEvent(event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// Run executes events until the queue is empty or the next event is
// after until. The clock finishes at until.
func (s *Simulator) Run(until Time) {
	for len(s.queue) > 0 && s.queue.peek().at <= until {
		e := s.queue.popEvent()
		s.now = e.at
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}
