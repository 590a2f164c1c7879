package main

import "loopscope/internal/trace"

// Tests may hold a trace; the rule reads non-test code only.
var fixture []trace.Record
