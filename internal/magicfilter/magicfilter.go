// Package magicfilter models BigDFT's core computational kernel — the
// "magic filter", a 16-tap convolution with periodic boundaries applied
// along each dimension of a 3-D array to compute the electronic
// potential — for the paper's auto-tuning study (§V.B, Figure 7).
//
// The variant model (SweepUnroll) predicts cycles and cache accesses of
// the 1-D pass for unroll degrees 1..12 on a given platform, combining
// the core issue model with genuine cache simulation of the kernel's
// memory traffic. It reproduces Figure 7's findings: convex cycle
// curves, cache accesses that explode once the unrolled window spills
// the register file, and a much narrower sweet spot on the in-order
// Tegra2 than on Nehalem. A sweep builds one cache hierarchy per
// platform and resets it before each variant.
//
// Spilled values live in a 16-slot stack frame: spill touch s stores to
// (s even) or reloads from slot s mod 16. The first 16 touches of an
// iteration touch every slot and store to every even one. When the
// frame's lines sit in distinct L1 sets, each later touch then hits its
// set's most recent line, already dirty if the touch is a store, and
// moves only the L1's access and hit counters. So the touches after the
// first 16 are accounted in bulk, as one zero-stride load run (spill).
// An L1 with fewer sets than the frame spans lines keeps the
// touch-by-touch loop; no built-in platform has one.
package magicfilter

import (
	"fmt"
	"math"

	"montblanc/internal/cache"
	"montblanc/internal/platform"
)

// taps is the filter support: BigDFT's magic filter spans [-7, 8].
const taps = 16

// lowOff is the offset of the first tap relative to the output index.
const lowOff = -7

// VariantResult is one point of the Figure 7 sweep.
type VariantResult struct {
	Platform       string
	Unroll         int
	Points         int     // outputs produced
	Cycles         float64 // total cycles
	CyclesPerPoint float64
	CacheAccesses  uint64 // data-cache accesses, summed over the levels
	AccessesPerPt  float64
}

// windowOverheadRegs is the bookkeeping register pressure of the kernel
// loop (pointers, index, bound, filter base) on top of the accumulators
// and the rolling input window.
const windowOverheadRegs = 10

// measureVariant models one unrolled variant of the 1-D magic filter
// over n points on platform p, returning predicted cycles and measured
// (simulated) cache accesses. h is p's hierarchy without a TLB, fresh
// from NewHierarchy or Reset: the cache accesses it reports are h's
// levels' accesses, summed. The accounting:
//
//   - FP: taps MACs per point. Issue cost derives from the core's DP
//     throughput; in-order cores additionally expose the MAC dependency
//     latency, divided across the `unroll` independent accumulators.
//   - Memory: 15+unroll distinct input loads and `unroll` stores per
//     iteration (consecutive outputs share their window), simulated
//     against the platform's cache hierarchy.
//   - Spills: live values beyond the register file spill to the stack;
//     the cascade grows quadratically with the excess, each spill a
//     store+reload pair through the cache simulator.
func measureVariant(p *platform.Platform, h *cache.Hierarchy, n, unroll int) (VariantResult, error) {
	if unroll < 1 || unroll > 64 {
		return VariantResult{}, fmt.Errorf("magicfilter: unroll %d out of range", unroll)
	}
	if n < taps {
		return VariantResult{}, fmt.Errorf("magicfilter: n %d below filter support", n)
	}
	core := p.CPU

	// --- analytic issue model (cycles that don't depend on cache state)
	macIssue := 2 / core.FlopsPerCycleDP // cycles per MAC at peak
	fpPerPoint := float64(taps) * macIssue
	if !core.OutOfOrder {
		// Dependency latency of the accumulation chain, interleaved
		// across `unroll` independent accumulators.
		macLatency := macIssue * 4
		perMac := macLatency / float64(unroll)
		if perMac > macIssue {
			fpPerPoint = float64(taps) * perMac
		}
	}

	loadsPerIter := taps - 1 + unroll // shared sliding window
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
	// stack frame (spill).
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
		traffic.Add(spill(h, stackBase, spillTouches))
	}
	points := iters * unroll

	totalCycles := float64(points)*fpPerPoint +
		float64(iters)*issuePerIter +
		core.StallCyclesTotal(traffic.Extra)

	var accesses uint64
	for l := 0; l < h.Depth(); l++ {
		accesses += h.Level(l).Stats().Accesses
	}
	return VariantResult{
		Platform:       p.Name,
		Unroll:         unroll,
		Points:         points,
		Cycles:         totalCycles,
		CyclesPerPoint: totalCycles / float64(points),
		CacheAccesses:  accesses,
		AccessesPerPt:  float64(accesses) / float64(points),
	}, nil
}

// elem is the size of one array element or spill slot (float64).
const elem = 8

// frameSlots is the number of slots in the spill frame.
const frameSlots = 16

// spill accounts one iteration's touches of the spill frame at base:
// touch s stores to (s even) or reloads from slot s mod frameSlots, each
// one access. When the frame's lines sit in distinct L1 sets, the
// touches after the first frameSlots are L1 hits on their sets' most
// recent lines that change no state (see the package doc), and one
// zero-stride load run accounts them; otherwise every touch is its own
// run. h must translate identically.
func spill(h *cache.Hierarchy, base uint64, touches int) cache.RunResult {
	var rr cache.RunResult
	l1 := h.Level(0).Config()
	line, sets := uint64(l1.LineSize), uint64(l1.Size/l1.LineSize/l1.Associativity)
	each := touches
	if lines := (base+frameSlots*elem-1)/line - base/line + 1; lines <= sets {
		each = min(touches, frameSlots)
	}
	for s := 0; s < each; s++ {
		rr.Add(h.AccessRun(base+uint64((s%frameSlots)*elem), 0, 1, s%2 == 0))
	}
	if rest := touches - each; rest > 0 {
		rr.Add(h.AccessRun(base, 0, rest, false))
	}
	return rr
}

// SweepUnroll measures unroll degrees 1..maxUnroll (Figure 7 uses 12)
// over n points on platform p, on one cache hierarchy reset before each
// variant.
func SweepUnroll(p *platform.Platform, n, maxUnroll int) ([]VariantResult, error) {
	h, err := p.NewHierarchy(nil)
	if err != nil {
		return nil, err
	}
	out := make([]VariantResult, 0, maxUnroll)
	for u := 1; u <= maxUnroll; u++ {
		h.Reset()
		r, err := measureVariant(p, h, n, u)
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
