// Benchmarks regenerating every table and figure of the paper, plus four
// ablations of the models behind them. Custom metrics carry the
// reproduced quantities (ratios, efficiencies, sweet spots) so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
package montblanc

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"montblanc/internal/apps/bigdft"
	"montblanc/internal/apps/linpack"
	"montblanc/internal/apps/specfem"
	"montblanc/internal/autotune"
	"montblanc/internal/cluster"
	"montblanc/internal/core"
	"montblanc/internal/cpu"
	"montblanc/internal/experiments"
	"montblanc/internal/fault"
	"montblanc/internal/magicfilter"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/network"
	"montblanc/internal/osmodel"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
	"montblanc/internal/stats"
	"montblanc/internal/top500"
	"montblanc/internal/units"
	"montblanc/internal/xrand"
)

// --- Figure 1 ----------------------------------------------------------

func BenchmarkFig1Top500Fit(b *testing.B) {
	var year float64
	for i := 0; i < b.N; i++ {
		trend, err := top500.FitTop()
		if err != nil {
			b.Fatal(err)
		}
		if year, err = trend.YearReaching(top500.ExaflopGF); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(year, "exaflop-year")
}

// --- Table II ------------------------------------------------------------

func BenchmarkTable2FullComparison(b *testing.B) {
	var rows []core.Comparison
	for i := 0; i < b.N; i++ {
		r, err := core.TableII()
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(rows[0].Ratio, "linpack-ratio")
	b.ReportMetric(rows[4].Ratio, "bigdft-ratio")
}

// --- Figure 3: strong scaling -------------------------------------------

func BenchmarkFig3aLinpackScaling(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.Tibidabo(48)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := linpack.StrongScaling(c, []int{4, 16, 48},
			linpack.ScalingConfig{N: 6144, NB: 64})
		if err != nil {
			b.Fatal(err)
		}
		eff = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(eff, "efficiency@48")
}

func BenchmarkFig3bSpecfemScaling(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.Tibidabo(64)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := specfem.StrongScaling(c, []int{4, 32, 128},
			specfem.ScalingConfig{Steps: 10})
		if err != nil {
			b.Fatal(err)
		}
		eff = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(eff, "efficiency@128")
}

func BenchmarkFig3cBigDFTScaling(b *testing.B) {
	var eff float64
	var drops float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.Tibidabo(32)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := bigdft.StrongScaling(c, []int{1, 8, 36},
			bigdft.ScalingConfig{Iters: 5})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		eff, drops = last.Efficiency, float64(last.Drops)
	}
	b.ReportMetric(eff, "efficiency@36")
	b.ReportMetric(drops, "drops@36")
}

// --- Figure 4 ------------------------------------------------------------

func BenchmarkFig4CongestionAnalysis(b *testing.B) {
	var delayedFrac float64
	for i := 0; i < b.N; i++ {
		_, cr, err := experiments.Fig4Data(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		delayedFrac = float64(cr.Delayed) / float64(cr.Instances)
	}
	b.ReportMetric(delayedFrac, "delayed-fraction")
}

// --- Figure 5 -------------------------------------------------------------

func BenchmarkFig5RTSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		// The full 42x50 sweep: the quick one is too short for the
		// degraded scheduler window to strike.
		res, err := experiments.Fig5Data(experiments.Options{Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Modes.Ratio
	}
	b.ReportMetric(ratio, "mode-ratio")
}

// --- Figure 6 --------------------------------------------------------------

func BenchmarkFig6OptimizationGrid(b *testing.B) {
	var armBest, xeonBest float64
	for i := 0; i < b.N; i++ {
		xeon, snow, err := experiments.Fig6Data()
		if err != nil {
			b.Fatal(err)
		}
		if g, ok := membench.Find(snow, cpu.W64, 8); ok {
			armBest = g.Bandwidth / 1e9
		}
		if g, ok := membench.Find(xeon, cpu.W128, 8); ok {
			xeonBest = g.Bandwidth / 1e9
		}
	}
	b.ReportMetric(armBest, "arm-best-GB/s")
	b.ReportMetric(xeonBest, "xeon-best-GB/s")
}

// --- Figure 7 ---------------------------------------------------------------

func BenchmarkFig7MagicfilterSweep(b *testing.B) {
	var nehHi, tegHi float64
	for i := 0; i < b.N; i++ {
		neh, teg, err := experiments.Fig7Data(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		_, nh := magicfilter.SweetSpot(neh, 0.15)
		_, th := magicfilter.SweetSpot(teg, 0.15)
		nehHi, tegHi = float64(nh), float64(th)
	}
	b.ReportMetric(nehHi, "nehalem-sweet-hi")
	b.ReportMetric(tegHi, "tegra2-sweet-hi")
}

// --- Ablations -------------------------------------------------------------

// Ablation 1: physically-indexed caches + page allocator. Random pages
// must cost bandwidth on the two-colour Snowball L1.
func BenchmarkAblationPageColoring(b *testing.B) {
	p := platform.Snowball()
	cfg := membench.Config{ArrayBytes: 32 * units.KiB}
	var contig, random float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for seed := uint64(1); seed <= 4; seed++ {
			r, err := membench.Run(p, osmodel.RandomPages.NewMapper(seed), cfg)
			if err != nil {
				b.Fatal(err)
			}
			sum += r.Bandwidth
		}
		random = sum / 4
		r, err := membench.Run(p, mem.NewContiguousMapper(0), cfg)
		if err != nil {
			b.Fatal(err)
		}
		contig = r.Bandwidth
	}
	b.ReportMetric(contig/1e9, "contiguous-GB/s")
	b.ReportMetric(random/1e9, "random-GB/s")
}

// Ablation 2: finite switch buffers. Infinite buffers erase the BigDFT
// collapse.
func BenchmarkAblationSwitchBuffers(b *testing.B) {
	var finite, infinite float64
	for i := 0; i < b.N; i++ {
		c1, err := cluster.Tibidabo(32)
		if err != nil {
			b.Fatal(err)
		}
		r1, err := bigdft.TimeDistributed(c1, 36, bigdft.ScalingConfig{Iters: 3})
		if err != nil {
			b.Fatal(err)
		}
		c2, err := cluster.Tibidabo(32)
		if err != nil {
			b.Fatal(err)
		}
		c2.Net.InfiniteBuffers()
		r2, err := bigdft.TimeDistributed(c2, 36, bigdft.ScalingConfig{Iters: 3})
		if err != nil {
			b.Fatal(err)
		}
		finite, infinite = r1.Seconds, r2.Seconds
	}
	b.ReportMetric(finite/infinite, "slowdown-from-buffers")
}

// Ablation 3: the register-pressure spill model. Without it (spill-free
// register file) ARM unrolling of 128-bit loads would look beneficial.
func BenchmarkAblationSpillModel(b *testing.B) {
	var withSpill, without float64
	for i := 0; i < b.N; i++ {
		p := platform.Snowball()
		cfg := membench.Config{ArrayBytes: 50 * units.KiB, Width: cpu.W128, Unroll: 8}
		r, err := membench.Run(p, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		withSpill = r.Bandwidth
		nospill := platform.Snowball()
		nospill.CPU.Regs = [3]int{64, 64, 64}
		r2, err := membench.Run(nospill, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		without = r2.Bandwidth
	}
	b.ReportMetric(withSpill/1e9, "spill-model-GB/s")
	b.ReportMetric(without/1e9, "no-spill-GB/s")
}

// Ablation 4: alltoallv schedule. The pairwise exchange sidesteps the
// incast that ruins the linear schedule.
func BenchmarkAblationAlltoallvSchedule(b *testing.B) {
	run := func(algo simmpi.AlltoallvAlgorithm) float64 {
		c, err := cluster.Tibidabo(32)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := c.Run(cluster.JobConfig{Ranks: 36, CoreFlopsPerSec: 1e9},
			func(p *simmpi.Proc) error {
				counts := make([]int, p.Size())
				for j := range counts {
					counts[j] = 48 << 10
				}
				for it := 0; it < 3; it++ {
					if err := p.Alltoallv(counts, algo); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		return rep.Seconds
	}
	var linear, pairwise float64
	for i := 0; i < b.N; i++ {
		linear = run(simmpi.AlltoallvLinear)
		pairwise = run(simmpi.AlltoallvPairwise)
	}
	b.ReportMetric(linear/pairwise, "linear-vs-pairwise")
}

// --- simmpi discrete-event core -----------------------------------------------

// simPingPongRounds is the number of round trips one
// BenchmarkSimMPIPingPong iteration runs; each round commits 4
// Send/Recv operations (2 ranks x send + recv).
const simPingPongRounds = 1000

// BenchmarkSimMPIPingPong measures the scheduler's point-to-point hot
// path: two ranks exchanging eager messages. Run with -benchmem; the
// allocs/op figure divided by ops/iter is the per-operation allocation
// cost the internal/simmpi AllocsPerRun guard pins.
func BenchmarkSimMPIPingPong(b *testing.B) {
	net := network.Star(2)
	for i := 0; i < b.N; i++ {
		net.Reset()
		_, err := simmpi.Run(simmpi.Config{Ranks: 2, Net: net}, func(p *simmpi.Proc) error {
			for r := 0; r < simPingPongRounds; r++ {
				if p.Rank() == 0 {
					if err := p.Send(1, 1, 1024); err != nil {
						return err
					}
					if err := p.Recv(1, 2); err != nil {
						return err
					}
				} else {
					if err := p.Recv(0, 1); err != nil {
						return err
					}
					if err := p.Send(0, 2, 1024); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ops := float64(4 * simPingPongRounds)
	b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkSimMPIAlltoallv measures the collective-heavy path at a
// realistic Tibidabo scale: 64 ranks of all-to-all exchange. The
// pairwise schedule keeps one or two mailbox queues live per rank; the
// linear schedule is the Figure 4 incast — every rank floods each
// destination in turn, opening O(ranks) concurrent mailbox queues, the
// case the mailbox key index exists for.
func BenchmarkSimMPIAlltoallv(b *testing.B) {
	const ranks, per = 64, 2
	for _, algo := range []struct {
		name string
		a    simmpi.AlltoallvAlgorithm
	}{
		{"pairwise", simmpi.AlltoallvPairwise},
		{"linear-incast", simmpi.AlltoallvLinear},
	} {
		b.Run(algo.name, func(b *testing.B) {
			net := network.Tree(ranks/per, 32)
			for i := 0; i < b.N; i++ {
				net.Reset()
				_, err := simmpi.Run(simmpi.Config{Ranks: ranks, Net: net, RanksPerNode: per},
					func(p *simmpi.Proc) error {
						counts := make([]int, p.Size())
						for j := range counts {
							counts[j] = 4 << 10
						}
						return p.Alltoallv(counts, algo.a)
					})
				if err != nil {
					b.Fatal(err)
				}
			}
			ops := float64(2 * ranks * (ranks - 1))
			b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// simRingIters drives the rank-scaling benchmark body: per iteration a
// neighbour ring shift plus an allreduce, i.e. O(ranks * log ranks)
// events per sweep — the regime where the seed scheduler's O(ranks)
// commit scan turns superlinear and the event heap stays O(log ranks).
func simRingIters(p *simmpi.Proc, iters, bytes int) error {
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	for it := 0; it < iters; it++ {
		if err := p.Send(next, 1+it%16, bytes); err != nil {
			return err
		}
		if err := p.Recv(prev, 1+it%16); err != nil {
			return err
		}
		if err := p.Allreduce(1024); err != nil {
			return err
		}
	}
	return nil
}

// simRankScalingCase runs one rank count of the rank-scaling benchmark
// and reports committed-events/s from the scheduler's own counter.
func simRankScalingCase(b *testing.B, ranks, per, iters int) {
	nodes := (ranks + per - 1) / per
	var net *network.Network
	if nodes <= 32 {
		net = network.Star(nodes)
	} else {
		net = network.Tree(nodes, 32)
	}
	var events uint64
	for i := 0; i < b.N; i++ {
		net.Reset()
		rep, err := simmpi.Run(simmpi.Config{Ranks: ranks, Net: net, RanksPerNode: per},
			func(p *simmpi.Proc) error {
				return simRingIters(p, iters, 2048)
			})
		if err != nil {
			b.Fatal(err)
		}
		events += rep.Sched.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimMPIRankScaling pins the scheduler's scaling behaviour from
// 32 to 512 ranks (the Mont-Blanc follow-on regimes: arXiv:1508.05075,
// arXiv:2007.04868 evaluate at hundreds-to-thousands of cores). The
// committed-events/s metric should be roughly flat across rank counts
// for an O(log R) scheduler and collapse for an O(R) one. The sub-
// benchmark names are stable (benchstat history).
func BenchmarkSimMPIRankScaling(b *testing.B) {
	const per = 2
	const iters = 20
	for _, ranks := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			simRankScalingCase(b, ranks, per, iters)
		})
	}
}

// --- membench batched cache engine --------------------------------------------

// BenchmarkMembenchFig3 regenerates the §V.A locality profile (the
// size x stride sweep behind the figure-scale membench results) on the
// Snowball at quick-suite sizes: the fixed cost every locality-style
// experiment pays per platform.
func BenchmarkMembenchFig3(b *testing.B) {
	p := platform.MustLookup("Snowball")
	sizes := []int{16 * units.KiB, 256 * units.KiB, 2 * units.MiB}
	strides := []int{1, 2, 4, 8, 16}
	var profile []membench.LocalityPoint
	for i := 0; i < b.N; i++ {
		var err error
		profile, err = membench.LocalityProfile(p, sizes, strides)
		if err != nil {
			b.Fatal(err)
		}
	}
	if pt, ok := membench.At(profile, 2*units.MiB, 1); ok {
		b.ReportMetric(pt.Bandwidth/1e9, "dram-stride1-GB/s")
	}
	b.ReportMetric(float64(len(sizes)*len(strides))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkMembenchStridedSweep walks one 64 MiB array across the
// stride spectrum — line-resident through page-skipping — on one warm
// runner, the engine's three regimes (bulk hits, per-line machinery,
// per-access machinery) in a single metric.
func BenchmarkMembenchStridedSweep(b *testing.B) {
	r, err := membench.NewRunner(platform.MustLookup("XeonX5550"), mem.NewContiguousMapper(0))
	if err != nil {
		b.Fatal(err)
	}
	strides := []int{1, 2, 4, 8, 16, 32, 64}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accesses = 0
		for _, s := range strides {
			res, err := r.Run(membench.Config{
				ArrayBytes:  64 * units.MiB,
				Width:       cpu.W64,
				StrideElems: s,
			})
			if err != nil {
				b.Fatal(err)
			}
			accesses += res.Accesses
		}
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "measured-accesses/s")
}

// --- Experiment runner --------------------------------------------------------

// BenchmarkRunAllSequential regenerates the full quick suite on one
// worker: the historical baseline.
func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAllParallel(io.Discard, experiments.Options{Quick: true}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// sequentialBaseline measures one sequential quick-suite run, once per
// process: the benchmark framework re-invokes the function at every
// b.N escalation and the baseline must not be re-paid (or re-randomized)
// each time.
var sequentialBaseline = sync.OnceValues(func() (time.Duration, error) {
	start := time.Now()
	err := experiments.RunAllParallel(io.Discard, experiments.Options{Quick: true}, 1)
	return time.Since(start), err
})

// BenchmarkRunAllParallel regenerates the quick suite on a full worker
// pool and reports the wall-clock speedup over the measured sequential
// baseline; the byte-identical-output property is asserted by the
// tests in internal/experiments.
func BenchmarkRunAllParallel(b *testing.B) {
	sequential, err := sequentialBaseline()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAllParallel(io.Discard, experiments.Options{Quick: true}, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(sequential.Seconds()/perOp.Seconds(), "speedup-vs-sequential")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// lookupAllPlatforms resolves every registered platform for the sweep
// benchmarks.
func lookupAllPlatforms() ([]*platform.Platform, error) {
	names := platform.Names()
	ps := make([]*platform.Platform, 0, len(names))
	for _, n := range names {
		p, err := platform.Lookup(n)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// BenchmarkSweep measures the N platforms x M workloads matrix and
// reports cell throughput.
func BenchmarkSweep(b *testing.B) {
	ps, err := lookupAllPlatforms()
	if err != nil {
		b.Fatal(err)
	}
	ws := core.TableIIWorkloads()
	b.ResetTimer()
	var s *core.Sweep
	for i := 0; i < b.N; i++ {
		s, err = core.RunSweep(ps, ws)
		if err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	cells := len(ps) * len(ws)
	b.ReportMetric(float64(cells)/perOp.Seconds(), "cells/s")
	snow, err := s.RefIndex("Snowball")
	if err != nil {
		b.Fatal(err)
	}
	xeon, err := s.RefIndex("XeonX5550")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.Ratio(0, snow, xeon), "linpack-snowball-ratio")
}

// --- Auto-tuning harness ------------------------------------------------------

func BenchmarkAutotuneExhaustive(b *testing.B) {
	p := platform.Tegra2Node()
	space := autotune.Space{Params: []autotune.Param{
		{Name: "unroll", Values: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
	}}
	obj := func(cfg autotune.Config) (float64, error) {
		r, err := magicfilter.MeasureVariant(p, 1024, cfg["unroll"])
		if err != nil {
			return 0, err
		}
		return r.CyclesPerPoint, nil
	}
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := autotune.Exhaustive(space, obj)
		if err != nil {
			b.Fatal(err)
		}
		best = float64(res.Best["unroll"])
	}
	b.ReportMetric(best, "best-unroll")
}

// --- Statistics used by Figure 5 ----------------------------------------------

func BenchmarkStatsTwoModes(b *testing.B) {
	rng := xrand.New(1)
	xs := make([]float64, 2100)
	for i := range xs {
		if i%5 == 0 {
			xs[i] = 200 + rng.NormFloat64()*5
		} else {
			xs[i] = 1000 + rng.NormFloat64()*20
		}
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = stats.TwoModes(xs).Ratio
	}
	b.ReportMetric(ratio, "mode-ratio")
}

// --- Resilience (fault injection + checkpoint/restart) ------------------------

// BenchmarkResilienceSweep measures the fault-injected checkpointing
// mini-app across every registered platform: node crashes, restart
// reads and checkpoint I/O all inside the deterministic simulator.
// Custom metrics carry the aggregate interrupting crashes and frozen
// rank-time, so regressions in fault handling show up next to the
// timing.
func BenchmarkResilienceSweep(b *testing.B) {
	ps, err := lookupAllPlatforms()
	if err != nil {
		b.Fatal(err)
	}
	spec := &fault.Spec{Seed: 11, MTBFSeconds: 40, HorizonSeconds: 500, DowntimeSeconds: 2}
	resolved, err := spec.Resolve(4, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.ResilienceConfig{
		Nodes:           4,
		WorkFlops:       4e9,
		CheckpointBytes: 32 << 20,
		IntervalSeconds: 1,
		Faults:          resolved,
	}
	b.ResetTimer()
	var crashes uint64
	var down float64
	for i := 0; i < b.N; i++ {
		crashes, down = 0, 0
		for _, p := range ps {
			r, err := core.RunResilienceProbe(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			crashes += r.Crashes
			down += r.DownSeconds
		}
	}
	b.ReportMetric(float64(crashes), "crashes")
	b.ReportMetric(down, "down-seconds")
}
