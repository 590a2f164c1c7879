package chaos

import "loopscope/internal/trace"

// Tests may read however they like; the rule reads non-test code only.
type fake struct{}

func (fake) Next() (trace.Record, error) { return trace.Record{}, nil }

func (fake) Borrow() (trace.Record, error) { return trace.Record{}, nil }
