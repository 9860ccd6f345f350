// Package magicfilter models BigDFT's core computational kernel — the
// "magic filter", a 16-tap convolution with periodic boundaries applied
// along each dimension of a 3-D array to compute the electronic
// potential — for the paper's auto-tuning study (§V.B, Figure 7).
//
// The variant model (MeasureVariant/SweepUnroll) predicts cycles and
// cache accesses of the 1-D pass for unroll degrees 1..12 on a given
// platform, combining the core issue model with genuine cache
// simulation of the kernel's memory traffic. It reproduces Figure 7's
// findings: convex cycle curves, cache accesses that explode once the
// unrolled window spills the register file, and a much narrower sweet
// spot on the in-order Tegra2 than on Nehalem.
package magicfilter

import (
	"fmt"
	"math"

	"montblanc/internal/cache"
	"montblanc/internal/papi"
	"montblanc/internal/platform"
)

// Taps is the filter support: BigDFT's magic filter spans [-7, 8].
const Taps = 16

// lowOff is the offset of the first tap relative to the output index.
const lowOff = -7

// FlopsPerPoint is the floating-point work per output point of one 1-D
// pass: Taps multiply-accumulate pairs.
func FlopsPerPoint() float64 { return 2 * Taps }

// VariantResult is one point of the Figure 7 sweep.
type VariantResult struct {
	Platform       string
	Unroll         int
	Points         int     // outputs produced
	Cycles         float64 // total cycles
	CyclesPerPoint float64
	CacheAccesses  uint64 // total data-cache accesses (PAPI_L1_DCA + L2 + L3)
	AccessesPerPt  float64
	Counters       papi.Counters
}

// windowOverheadRegs is the bookkeeping register pressure of the kernel
// loop (pointers, index, bound, filter base) on top of the accumulators
// and the rolling input window.
const windowOverheadRegs = 10

// MeasureVariant models one unrolled variant of the 1-D magic filter
// over n points on platform p, returning predicted cycles and measured
// (simulated) cache accesses. The accounting:
//
//   - FP: Taps MACs per point. Issue cost derives from the core's DP
//     throughput; in-order cores additionally expose the MAC dependency
//     latency, divided across the `unroll` independent accumulators.
//   - Memory: 15+unroll distinct input loads and `unroll` stores per
//     iteration (consecutive outputs share their window), simulated
//     against the platform's cache hierarchy.
//   - Spills: live values beyond the register file spill to the stack;
//     the cascade grows quadratically with the excess, each spill a
//     store+reload pair through the cache simulator.
func MeasureVariant(p *platform.Platform, n, unroll int) (VariantResult, error) {
	if unroll < 1 || unroll > 64 {
		return VariantResult{}, fmt.Errorf("magicfilter: unroll %d out of range", unroll)
	}
	if n < Taps {
		return VariantResult{}, fmt.Errorf("magicfilter: n %d below filter support", n)
	}
	h, err := p.NewHierarchy(nil)
	if err != nil {
		return VariantResult{}, err
	}
	core := p.CPU

	// --- analytic issue model (cycles that don't depend on cache state)
	macIssue := 2 / core.FlopsPerCycleDP // cycles per MAC at peak
	fpPerPoint := float64(Taps) * macIssue
	if !core.OutOfOrder {
		// Dependency latency of the accumulation chain, interleaved
		// across `unroll` independent accumulators.
		macLatency := macIssue * 4
		perMac := macLatency / float64(unroll)
		if perMac > macIssue {
			fpPerPoint = float64(Taps) * perMac
		}
	}

	loadsPerIter := Taps - 1 + unroll // shared sliding window
	storesPerIter := unroll

	// Register pressure: accumulators + window + bookkeeping.
	live := unroll + windowOverheadRegs
	excess := live - core.Regs[1] // 64-bit values
	spillTouches := 0
	if excess > 0 {
		// Each spilled value displaces another: quadratic cascade.
		spillTouches = int(math.Round(1.8 * float64(excess) * float64(excess)))
	}

	issuePerIter := float64(loadsPerIter)*core.LoadIssue[1] +
		float64(storesPerIter)*core.LoadIssue[1] +
		core.LoopOverhead +
		float64(spillTouches)*core.SpillCost*core.SpillPipelineFactor

	// --- simulated memory traffic (stalls + counters). The sliding
	// input window and the output stores are ascending strided runs, so
	// they drive the batched engine (cache.Hierarchy.AccessRun); the
	// window's periodic wrap at the array edges splits a run into at
	// most three contiguous segments, accessed in the same order the
	// scalar loop would. Spill traffic alternates store/reload on a hot
	// stack frame and stays on the scalar path.
	const elem = 8 // float64
	srcBase := uint64(0)
	dstBase := uint64(n*elem + 4096) // separate pages
	stackBase := uint64(2*n*elem + 1<<20)

	var traffic cache.RunResult
	iters := n / unroll
	for it := 0; it < iters; it++ {
		i := it * unroll
		// Loads: window indices i+lowOff .. i+lowOff+loadsPerIter-1,
		// wrapped into [0, n). Emit the wrapped-low, interior and
		// wrapped-high segments in index order (== scalar access order).
		lo := i + lowOff
		if lo < 0 {
			traffic.Add(h.AccessRun(srcBase+uint64((lo+n)*elem), elem, -lo, false))
			lo = 0
		}
		hi := i + lowOff + loadsPerIter // one past the last window index
		if over := hi - n; over > 0 {
			traffic.Add(h.AccessRun(srcBase+uint64(lo*elem), elem, n-lo, false))
			traffic.Add(h.AccessRun(srcBase, elem, over, false))
		} else {
			traffic.Add(h.AccessRun(srcBase+uint64(lo*elem), elem, hi-lo, false))
		}
		traffic.Add(h.AccessRun(dstBase+uint64(i*elem), elem, unroll, true))
		for s := 0; s < spillTouches; s++ {
			// Store + reload on a small hot stack frame: alternating
			// write/read, so each touch is its own single-access run.
			addr := stackBase + uint64((s%16)*elem)
			traffic.Add(h.AccessRun(addr, 0, 1, s%2 == 0))
		}
	}
	points := iters * unroll

	totalCycles := float64(points)*fpPerPoint +
		float64(iters)*issuePerIter +
		core.StallCyclesTotal(traffic.Extra)

	counters := papi.FromHierarchy(h).
		Add(papi.TOT_CYC, uint64(math.Round(totalCycles))).
		Add(papi.FP_OPS, uint64(float64(points)*FlopsPerPoint()))

	res := VariantResult{
		Platform:       p.Name,
		Unroll:         unroll,
		Points:         points,
		Cycles:         totalCycles,
		CyclesPerPoint: totalCycles / float64(points),
		CacheAccesses:  counters.CacheAccesses(),
		Counters:       counters,
	}
	res.AccessesPerPt = float64(res.CacheAccesses) / float64(points)
	return res, nil
}

// SweepUnroll measures unroll degrees 1..maxUnroll (Figure 7 uses 12)
// over n points on platform p.
func SweepUnroll(p *platform.Platform, n, maxUnroll int) ([]VariantResult, error) {
	out := make([]VariantResult, 0, maxUnroll)
	for u := 1; u <= maxUnroll; u++ {
		r, err := MeasureVariant(p, n, u)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// BestUnroll returns the unroll degree with the fewest cycles per point.
func BestUnroll(results []VariantResult) int {
	best, bestCyc := 0, math.Inf(1)
	for _, r := range results {
		if r.CyclesPerPoint < bestCyc {
			best, bestCyc = r.Unroll, r.CyclesPerPoint
		}
	}
	return best
}

// SweetSpot returns the contiguous range of unroll degrees around the
// optimum whose cycles stay within tolerance (e.g. 0.15 for 15%) of the
// minimum — the paper's "[4:7] on Tegra2 vs [4:12] on Nehalem".
func SweetSpot(results []VariantResult, tolerance float64) (lo, hi int) {
	if len(results) == 0 {
		return 0, 0
	}
	minCyc := math.Inf(1)
	bestIdx := 0
	for i, r := range results {
		if r.CyclesPerPoint < minCyc {
			minCyc = r.CyclesPerPoint
			bestIdx = i
		}
	}
	limit := minCyc * (1 + tolerance)
	lo, hi = results[bestIdx].Unroll, results[bestIdx].Unroll
	for i := bestIdx - 1; i >= 0 && results[i].CyclesPerPoint <= limit; i-- {
		lo = results[i].Unroll
	}
	for i := bestIdx + 1; i < len(results) && results[i].CyclesPerPoint <= limit; i++ {
		hi = results[i].Unroll
	}
	return lo, hi
}
