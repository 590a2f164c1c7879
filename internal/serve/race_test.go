//go:build race

package serve

// raceEnabled reports whether the race detector, which allocates on its
// own account, is compiled in; the allocation budgets skip under it.
const raceEnabled = true
