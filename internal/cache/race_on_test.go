//go:build race

package cache

// raceEnabled reports whether the race detector is active; the
// AllocsPerRun guards skip under -race (instrumentation skews
// allocation counts).
const raceEnabled = true
