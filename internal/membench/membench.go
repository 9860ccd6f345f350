// Package membench implements the memory-intensive kernel of §V.A,
// modelled after Tikir et al.'s benchmark (the paper's [14]): it loops
// over an array of fixed size with a fixed stride and reports the
// effective memory bandwidth. The array size probes temporal locality
// (cache capacity), the stride spatial locality (line utilization), and
// the element width / unroll degree the instruction-level effects of
// Figure 6.
//
// A measurement is a run of identical passes over the array, simulated
// on the batched cache engine. A pass over a contiguous mapping (or
// none) runs set-major: each cache set is walked once, the misses a set
// is certain to take past its ways are accounted in closed form, and so
// is every fill of a fresh or Reset hierarchy, its TLB's included. Every
// measurement starts cold: Runner.Run resets the hierarchy before its
// first pass, so a result never depends on what the Runner measured
// before, and a sweep reuses one Runner's allocation, not its state.
// Once a pass proves what every later pass does
// (cache.Hierarchy.AccessPass: from each set's hits and misses, either
// the pass repeats itself or the next pass hits at a level the pass
// filled), Runner.Run replays that later pass's RunResult and counters
// instead of simulating the rest; see internal/cache/CACHE.md. Passes
// over random page maps run line by line and prove nothing, so every
// one of them is simulated.
package membench

import (
	"fmt"

	"montblanc/internal/cache"
	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/osmodel"
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

	// SimulatedPasses counts the passes the engine executed and
	// ReplayedPasses those it replayed or skipped once a pass proved
	// them; they sum to WarmPasses+MeasurePasses.
	SimulatedPasses, ReplayedPasses int
}

// Runner performs measurements against one platform with one page
// mapping, modelling a single process whose malloc/free keeps returning
// the same physical pages (§V.A.1): the mapper keeps its mappings across
// Runs, while the caches and the TLB start cold in each. Measurements
// run on the batched cache engine with periodic-pass replay: once a
// simulated pass, warm or measured, proves what every later pass does,
// that later pass stands in for every pass still to run. The property
// suite in equivalence_test.go pins Run exactly equivalent to an
// element-at-a-time reference. See internal/cache/CACHE.md.
type Runner struct {
	plat *platform.Platform
	hier *cache.Hierarchy

	// next is the pass to replay, reused across passes and Runs so the
	// steady state allocates nothing.
	next cache.Replay
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

// Run measures one configuration and returns the result. It resets the
// hierarchy first, so every measurement starts cold. It drives the
// batched engine — translation once per page, set machinery once per
// line — and, once a pass, warm or measured, proves what every later
// pass does, skips the warm passes left and replays the measured passes
// left as that later pass's counter delta instead of simulating them.
// Result.SimulatedPasses says how many passes ran.
func (r *Runner) Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	elemBytes := cfg.Width.Bytes()
	stride := cfg.StrideElems
	strideBytes := stride * elemBytes
	count := (cfg.ArrayBytes/elemBytes + stride - 1) / stride // accesses per pass

	// Issue cost per access from the core model: the unrolled loop body
	// amortizes loop overhead but may spill registers.
	issuePerAccess := r.plat.CPU.IterationCost(cfg.Width, cfg.Unroll) / float64(cfg.Unroll)

	cycles := func(rr cache.RunResult) float64 {
		return float64(rr.Accesses)*issuePerAccess + r.plat.CPU.StallCyclesTotal(rr.Extra)
	}

	r.hier.Reset()
	passes := cfg.WarmPasses + cfg.MeasurePasses
	var totalCycles float64
	var totalAccesses uint64
	simulated := 0
	for p := 0; p < passes; p++ {
		measured := p >= cfg.WarmPasses
		if p == cfg.WarmPasses {
			r.hier.ResetStats()
		}
		rr, proved := r.hier.AccessPass(0, strideBytes, count, &r.next)
		simulated++
		if measured {
			totalCycles += cycles(rr)
			totalAccesses += rr.Accesses
		}
		if !proved || p == passes-1 {
			continue
		}
		// Every pass after p repeats r.next exactly and leaves the state
		// as p left it. Warm passes left only move state and are
		// skipped; each measured pass left replays r.next's counter
		// delta and adds its cycles and accesses, in pass order.
		replay := cfg.MeasurePasses
		if measured {
			replay = passes - 1 - p
		} else {
			r.hier.ResetStats()
		}
		r.hier.AddStats(&r.next.Delta, uint64(replay))
		cyc := cycles(r.next.Result)
		for i := 0; i < replay; i++ {
			totalCycles += cyc
			totalAccesses += r.next.Result.Accesses
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
	Degraded  bool    // scheduler was in a degraded window
}

// Sweep measures every size in sizes reps times on platform p, in
// randomized order as §V.A.1 prescribes ("benchmarks ... need to be
// thoroughly randomized"), and returns measurements in wall-clock order.
// It models the §V.A.2 setup: contiguous pages, real-time priority on
// the ARM board (osmodel.NewRTScheduler), both seeded by seed.
func Sweep(p *platform.Platform, seed uint64, sizes []int, reps int) ([]Measurement, error) {
	runner, err := NewRunner(p, mem.NewContiguousMapper(0))
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
	rng := xrand.New(seed)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Cache raw (unperturbed) results per size: every Run starts cold,
	// so re-running identical configurations only costs time. Scheduler
	// perturbation is applied per measurement afterwards, which is also
	// physically faithful: the kernel's work is identical, the OS
	// window slows it down.
	raw := make(map[int]Result)
	out := make([]Measurement, 0, len(order))
	sched := osmodel.NewRTScheduler(seed)
	for seq, pt := range order {
		res, ok := raw[pt.size]
		if !ok {
			res, err = runner.Run(Config{ArrayBytes: pt.size})
			if err != nil {
				return nil, err
			}
			raw[pt.size] = res
		}
		factor := sched.Next()
		out = append(out, Measurement{
			Seq:       seq,
			SizeBytes: pt.size,
			Rep:       pt.rep,
			Bandwidth: res.Bandwidth / factor,
			Degraded:  sched.Degraded(),
		})
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
// 1, unroll in {1, 8}), on one Runner whose every Run starts cold.
func OptimizationGrid(p *platform.Platform, arrayBytes int, unrolls []int) ([]GridPoint, error) {
	r, err := NewRunner(p, nil)
	if err != nil {
		return nil, err
	}
	var out []GridPoint
	for _, w := range cpu.Widths() {
		for _, u := range unrolls {
			res, err := r.Run(Config{
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
