//go:build race

package plan

// raceEnabled reports whether the race detector is compiled in: it makes
// allocations of its own, so tests that count allocations skip under it.
const raceEnabled = true
