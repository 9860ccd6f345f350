package membench

import (
	"slices"

	"montblanc/internal/cache"
)

// RunScalar is the reference measurement the equivalence suites pin
// Run against: one Hierarchy.Access per element, every pass simulated,
// nothing replayed. Like Run it starts cold, and it repeats Run's
// arithmetic — issue cost, stall cycles added pass by pass, bandwidth —
// over the scalar path. It is the baseline BenchmarkMembenchLargeArray
// measures the batched engine against.
func (r *Runner) RunScalar(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	elemBytes := cfg.Width.Bytes()
	n := cfg.ArrayBytes / elemBytes
	issuePerAccess := r.plat.CPU.IterationCost(cfg.Width, cfg.Unroll) / float64(cfg.Unroll)
	l1Hit := r.hier.L1HitLatency()
	r.hier.Reset()
	passes := cfg.WarmPasses + cfg.MeasurePasses
	var totalCycles float64
	var totalAccesses uint64
	for p := 0; p < passes; p++ {
		if p == cfg.WarmPasses {
			r.hier.ResetStats()
		}
		var rr cache.RunResult
		for i := 0; i < n; i += cfg.StrideElems {
			lat := r.hier.Access(uint64(i*elemBytes), false)
			rr.Accesses++
			rr.Latency += uint64(lat)
			if lat > l1Hit {
				rr.Extra += uint64(lat - l1Hit)
			}
		}
		cyc := float64(rr.Accesses)*issuePerAccess + r.plat.CPU.StallCyclesTotal(rr.Extra)
		if p >= cfg.WarmPasses {
			totalCycles += cyc
			totalAccesses += rr.Accesses
		}
	}
	res := Result{
		Config:          cfg,
		Cycles:          totalCycles,
		Accesses:        totalAccesses,
		SimulatedPasses: passes,
	}
	res.Seconds = totalCycles * r.plat.CPU.SecondsPerCycle()
	if res.Seconds > 0 {
		res.Bandwidth = float64(totalAccesses) * float64(elemBytes) / res.Seconds
	}
	return res, nil
}

// statesEqual compares two canonical-state encodings.
func statesEqual(a, b []uint64) bool { return slices.Equal(a, b) }
