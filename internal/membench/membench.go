// Package membench implements the memory-intensive kernel of §V.A,
// modelled after Tikir et al.'s benchmark (the paper's [14]): it loops
// over an array of fixed size with a fixed stride and reports the
// effective memory bandwidth. The array size probes temporal locality
// (cache capacity), the stride spatial locality (line utilization), and
// the element width / unroll degree the instruction-level effects of
// Figure 6.
//
// A measurement is a run of identical passes over the array, simulated
// on the batched cache engine. Once a pass maps the hierarchy's
// replacement state onto itself, every later pass would repeat it, so
// Runner.Run replays its counters instead of simulating the rest; see
// internal/cache/CACHE.md.
package membench

import (
	"fmt"
	"slices"

	"montblanc/internal/cache"
	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/osmodel"
	"montblanc/internal/papi"
	"montblanc/internal/platform"
	"montblanc/internal/xrand"
)

// Config parameterizes one bandwidth measurement.
type Config struct {
	ArrayBytes    int       // working-set size
	StrideElems   int       // stride in elements (default 1)
	Width         cpu.Width // element width (default 32-bit)
	Unroll        int       // manual unroll degree (default 1)
	WarmPasses    int       // passes before measurement (default 2)
	MeasurePasses int       // measured passes (default 2)
}

func (c Config) withDefaults() Config {
	if c.StrideElems <= 0 {
		c.StrideElems = 1
	}
	if c.Width == 0 {
		c.Width = cpu.W32
	}
	if c.Unroll <= 0 {
		c.Unroll = 1
	}
	if c.WarmPasses <= 0 {
		c.WarmPasses = 2
	}
	if c.MeasurePasses <= 0 {
		c.MeasurePasses = 2
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.ArrayBytes < c.Width.Bytes() {
		return fmt.Errorf("membench: array of %d bytes smaller than one element", c.ArrayBytes)
	}
	return nil
}

// Result is one bandwidth measurement.
type Result struct {
	Config    Config
	Cycles    float64
	Accesses  uint64
	Seconds   float64
	Bandwidth float64 // effective bytes/s = accesses * elemBytes / time
	Counters  papi.Counters

	// SimulatedPasses counts the passes the engine executed and
	// ReplayedPasses those a fixed-point pass stood in for; they sum to
	// WarmPasses+MeasurePasses. RunScalar replays none.
	SimulatedPasses, ReplayedPasses int
}

// Runner performs measurements against one platform with one page
// mapping, modelling a single process whose malloc/free keeps returning
// the same physical pages (§V.A.1). Measurements run on the batched
// cache engine (cache.Hierarchy.AccessRun) with periodic-pass
// memoization: every simulated pass, warm or measured, is a fixed-point
// candidate whose counter delta and aggregates stand in for every
// measured pass still to run. RunScalar retains the element-at-a-time
// reference path, and the two are pinned exactly equivalent by the
// property suite in equivalence_test.go. See internal/cache/CACHE.md.
type Runner struct {
	plat *platform.Platform
	hier *cache.Hierarchy

	// Memoization scratch, reused across passes and Runs so the steady
	// state allocates nothing: two canonical-state snapshots for
	// fixed-point detection, sized to StateWords on first use, and
	// three counter snapshots for delta capture and replay.
	statePrev, stateCur             []uint64
	statsPre, statsPost, statsDelta cache.HierarchyStats
}

// NewRunner creates a Runner for platform p with page mapper m (nil for
// identity mapping).
func NewRunner(p *platform.Platform, m mem.Mapper) (*Runner, error) {
	h, err := p.NewHierarchy(m)
	if err != nil {
		return nil, err
	}
	return &Runner{plat: p, hier: h}, nil
}

// Hierarchy exposes the Runner's cache hierarchy for tests and
// diagnostics.
func (r *Runner) Hierarchy() *cache.Hierarchy { return r.hier }

// Run measures one configuration and returns the result. It drives the
// batched engine: translation once per page, set machinery once per
// line, and — once a pass, warm or measured, is detected to leave the
// hierarchy's canonical state at a fixed point — the warm passes left
// skipped and the measured passes left replayed as counter deltas
// instead of being re-simulated. Results are exactly those of
// RunScalar; Result.SimulatedPasses says how many passes ran.
func (r *Runner) Run(cfg Config) (Result, error) { return r.run(cfg, false) }

// RunScalar is the reference implementation: one Hierarchy.Access per
// element, no batching, no memoization. It exists to pin the batched
// engine — the equivalence suite asserts identical cycles, per-level
// Stats and papi counters against it — and as the baseline the
// BenchmarkMembench* family measures speedups over.
func (r *Runner) RunScalar(cfg Config) (Result, error) { return r.run(cfg, true) }

// statesEqual compares two canonical-state encodings.
func statesEqual(a, b []uint64) bool { return slices.Equal(a, b) }

// memoGateFactor weighs simulated L1 lines against state words: Run
// takes fixed-point snapshots only when a pass touches at least
// StateWords/memoGateFactor L1 lines. A snapshot (copy plus compare)
// costs about 2 ns per word and a pass that large 45-170 ns per line,
// so at the gate one snapshot costs at most about 1.4 passes.
// internal/cache/CACHE.md records the factor sweep behind the choice.
const memoGateFactor = 32

// memoizes reports whether Run takes fixed-point snapshots for cfg.
func (r *Runner) memoizes(cfg Config) bool {
	cfg = cfg.withDefaults()
	strideBytes := cfg.StrideElems * cfg.Width.Bytes()
	count := (cfg.ArrayBytes/cfg.Width.Bytes() + cfg.StrideElems - 1) / cfg.StrideElems
	lines := min(count, (count-1)*strideBytes/r.plat.L1().LineSize+1)
	return lines*memoGateFactor >= r.hier.StateWords()
}

func (r *Runner) run(cfg Config, scalar bool) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	elemBytes := cfg.Width.Bytes()
	n := cfg.ArrayBytes / elemBytes
	stride := cfg.StrideElems
	strideBytes := stride * elemBytes
	count := (n + stride - 1) / stride // accesses per pass

	// Issue cost per access from the core model: the unrolled loop body
	// amortizes loop overhead but may spill registers.
	issuePerAccess := r.plat.CPU.IterationCost(cfg.Width, cfg.Unroll) / float64(cfg.Unroll)
	l1Hit := r.hier.L1HitLatency()

	pass := func() cache.RunResult {
		if scalar {
			var rr cache.RunResult
			for i := 0; i < n; i += stride {
				va := uint64(i * elemBytes)
				lat := r.hier.Access(va, false)
				rr.Accesses++
				rr.Latency += uint64(lat)
				if lat > l1Hit {
					rr.Extra += uint64(lat - l1Hit)
				}
			}
			return rr
		}
		return r.hier.AccessRun(0, strideBytes, count, false)
	}
	passCycles := func(rr cache.RunResult) float64 {
		return float64(rr.Accesses)*issuePerAccess + r.plat.CPU.StallCyclesTotal(rr.Extra)
	}

	memo := !scalar && r.memoizes(cfg)
	if memo {
		if words := r.hier.StateWords(); cap(r.stateCur) < words {
			r.statePrev = make([]uint64, 0, words)
			r.stateCur = make([]uint64, 0, words)
		}
		r.stateCur = r.hier.AppendState(r.stateCur[:0])
	}
	passes := cfg.WarmPasses + cfg.MeasurePasses
	var totalCycles float64
	var totalAccesses uint64
	simulated := 0
	for p := 0; p < passes; p++ {
		measured := p >= cfg.WarmPasses
		if p == cfg.WarmPasses {
			r.hier.ResetStats()
		}
		// Every pass but the last is a fixed-point candidate.
		candidate := memo && p < passes-1
		if candidate {
			r.hier.ReadStats(&r.statsPre)
		}
		rr := pass()
		simulated++
		cyc := passCycles(rr)
		if measured {
			totalCycles += cyc
			totalAccesses += rr.Accesses
		}
		if !candidate {
			continue
		}
		r.statePrev, r.stateCur = r.stateCur, r.statePrev
		r.stateCur = r.hier.AppendState(r.stateCur[:0])
		if !statesEqual(r.statePrev, r.stateCur) {
			continue
		}
		// Pass p mapped the canonical state onto itself, so every later
		// pass starts from the state p started from and repeats it
		// exactly. Warm passes left only move state and are skipped;
		// each measured pass left replays p's counter delta and adds
		// p's cycles and accesses, in pass order.
		r.hier.ReadStats(&r.statsPost)
		r.statsDelta.Delta(&r.statsPost, &r.statsPre)
		replay := cfg.MeasurePasses
		if measured {
			replay = passes - 1 - p
		} else {
			r.hier.ResetStats()
		}
		r.hier.AddStats(&r.statsDelta, uint64(replay))
		for i := 0; i < replay; i++ {
			totalCycles += cyc
			totalAccesses += rr.Accesses
		}
		break
	}

	res := Result{
		Config:          cfg,
		Cycles:          totalCycles,
		Accesses:        totalAccesses,
		SimulatedPasses: simulated,
		ReplayedPasses:  passes - simulated,
	}
	res.Seconds = totalCycles * r.plat.CPU.SecondsPerCycle()
	if res.Seconds > 0 {
		res.Bandwidth = float64(totalAccesses) * float64(elemBytes) / res.Seconds
	}
	res.Counters = papi.FromHierarchy(r.hier)
	return res, nil
}

// Run is a convenience that builds a fresh Runner and measures cfg once.
func Run(p *platform.Platform, m mem.Mapper, cfg Config) (Result, error) {
	r, err := NewRunner(p, m)
	if err != nil {
		return Result{}, err
	}
	return r.Run(cfg)
}

// Measurement is one point of a randomized sweep (Figure 5).
type Measurement struct {
	Seq       int // wall-clock order in the sweep
	SizeBytes int
	Rep       int
	Bandwidth float64 // effective bytes/s after scheduler perturbation
	Degraded  bool    // scheduler was in a degraded window (if knowable)
}

// Sweep measures every size in sizes reps times under environment env,
// in randomized order as §V.A.1 prescribes ("benchmarks ... need to be
// thoroughly randomized"), and returns measurements in wall-clock order.
func Sweep(p *platform.Platform, env osmodel.Environment, sizes []int, reps int) ([]Measurement, error) {
	mapper := env.Pages.NewMapper(env.Seed)
	runner, err := NewRunner(p, mapper)
	if err != nil {
		return nil, err
	}

	type point struct{ size, rep int }
	var order []point
	for _, s := range sizes {
		for r := 0; r < reps; r++ {
			order = append(order, point{s, r})
		}
	}
	rng := xrand.New(env.Seed)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Cache raw (unperturbed) results per size: the simulated kernel is
	// deterministic for a fixed mapper, so re-running identical
	// configurations only costs time. Scheduler perturbation is applied
	// per measurement afterwards, which is also physically faithful:
	// the kernel's work is identical, the OS window slows it down.
	raw := make(map[int]Result)
	out := make([]Measurement, 0, len(order))
	rt, _ := env.Scheduler.(*osmodel.RTScheduler)
	for seq, pt := range order {
		res, ok := raw[pt.size]
		if !ok {
			res, err = runner.Run(Config{ArrayBytes: pt.size})
			if err != nil {
				return nil, err
			}
			raw[pt.size] = res
		}
		factor := env.Scheduler.Next()
		m := Measurement{
			Seq:       seq,
			SizeBytes: pt.size,
			Rep:       pt.rep,
			Bandwidth: res.Bandwidth / factor,
		}
		if rt != nil {
			m.Degraded = rt.Degraded()
		}
		out = append(out, m)
	}
	return out, nil
}

// GridPoint is one cell of the Figure 6 optimization grid.
type GridPoint struct {
	Width     cpu.Width
	Unroll    int
	Bandwidth float64 // bytes/s
}

// OptimizationGrid measures the element-width x unroll grid of Figure 6
// on platform p for the given array size (the paper uses 50 KB, stride
// 1, unroll in {1, 8}).
func OptimizationGrid(p *platform.Platform, arrayBytes int, unrolls []int) ([]GridPoint, error) {
	var out []GridPoint
	for _, w := range cpu.Widths() {
		for _, u := range unrolls {
			res, err := Run(p, nil, Config{
				ArrayBytes: arrayBytes,
				Width:      w,
				Unroll:     u,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, GridPoint{Width: w, Unroll: u, Bandwidth: res.Bandwidth})
		}
	}
	return out, nil
}

// Find returns the grid point for (w, u), or false if absent.
func Find(grid []GridPoint, w cpu.Width, u int) (GridPoint, bool) {
	for _, g := range grid {
		if g.Width == w && g.Unroll == u {
			return g, true
		}
	}
	return GridPoint{}, false
}
