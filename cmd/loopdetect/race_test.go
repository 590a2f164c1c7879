//go:build race

package main

// raceEnabled reports whether the race detector, which allocates on its
// own account, is compiled in; the allocation budget skips under it.
const raceEnabled = true
