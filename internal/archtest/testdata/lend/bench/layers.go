// Package bench is not built. The benchmark harness is out of the
// rule's reach until it moves to core.Run.
package bench

import "loopscope/internal/trace"

type slice struct{ recs []trace.Record }

func (s *slice) Next() (trace.Record, error) { return s.recs[0], nil }
