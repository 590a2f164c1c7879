//go:build race

package traffic

// raceEnabled reports whether the race detector, which allocates on its
// own account, is compiled in; the allocation budgets skip under it.
const raceEnabled = true
