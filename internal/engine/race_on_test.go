//go:build race

package engine

// raceEnabled reports whether the race detector is compiled in: it makes
// sync.Pool drop items at random and allocates on its own, so tests that pin
// allocation counts skip under it.
const raceEnabled = true
