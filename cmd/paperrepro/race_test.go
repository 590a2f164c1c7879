//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// full-scale golden run skips under it, which slows the simulation
// several times over.
const raceEnabled = true
