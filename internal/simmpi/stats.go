package simmpi

import (
	"math"
	"sync/atomic"
	"time"
)

// engineStart anchors nowMonotonic: wall-clock durations measured
// against a process-local monotonic origin.
//
//detlint:allow wallclock -- monotonic origin for SchedStats.Wall telemetry; wall time feeds -time and /metrics, never simulation results
var engineStart = time.Now()

//detlint:allow wallclock -- wall-clock telemetry only (events/s rates); simulation output never includes it
func nowMonotonic() float64 { return time.Since(engineStart).Seconds() }

// engineTotals aggregates SchedStats across every Run in the process,
// lock-free so concurrent simulations (the runner pool, the service)
// account without contention. The wall-time sum is stored as IEEE bits
// and updated by CAS.
var engineTotals struct {
	runs, events, wallBits atomic.Uint64
}

func addFloatBits(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// recordEngineRun folds one successful run into the process totals.
func recordEngineRun(st SchedStats) {
	engineTotals.runs.Add(1)
	engineTotals.events.Add(st.Events)
	addFloatBits(&engineTotals.wallBits, st.Wall)
}

// EngineStats is the process-wide scheduler aggregate: every completed
// Run since process start, with the committed-event rate. Rendered by
// the CLI under -time and by the service's /metrics document.
type EngineStats struct {
	Runs         uint64  `json:"runs"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_second"`
}

// Engine returns a snapshot of the process-wide scheduler totals.
func Engine() EngineStats {
	s := EngineStats{
		Runs:        engineTotals.runs.Load(),
		Events:      engineTotals.events.Load(),
		WallSeconds: math.Float64frombits(engineTotals.wallBits.Load()),
	}
	if s.WallSeconds > 0 {
		s.EventsPerSec = float64(s.Events) / s.WallSeconds
	}
	return s
}
