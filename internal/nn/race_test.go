//go:build race

package nn

// raceEnabled reports that the race detector is on: its instrumentation
// allocates and its sync.Pool drops a quarter of what is Put, so the
// allocation ratchet skips.
const raceEnabled = true
