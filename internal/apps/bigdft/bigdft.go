// Package bigdft models the BigDFT workload of the paper: an
// electronic-structure code built on Daubechies wavelets whose core
// operation is the magicfilter 3-D convolution, and whose distributed
// form transposes the grid between dimensions with MPI_Alltoallv — the
// communication pattern that the Tibidabo Ethernet switches punished
// (Figures 3c and 4).
//
// The package holds the calibrated Table II row-5 time model and the
// distributed simulation whose strong scaling collapses once per-peer
// transpose messages fall below the eager threshold and incast drops
// begin.
package bigdft

import (
	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
	"montblanc/internal/xrand"
)

// --- Table II model ---------------------------------------------------

// Table II instance: double-precision flop volume of the paper's small
// BigDFT case. BigDFT is DP-only, which is what ruins the A9500: its
// NEON unit cannot help, everything runs on the non-pipelined VFP.
const instanceFlops = 260e9

// kernelEfficiency is the fraction of the platform's sustained DP rate
// the magicfilter convolutions reach: BigDFT is hand-optimized for x86,
// where it is cache-blocked but bound by SSE shuffle pressure (0.60 of
// sustained); the unchanged build on ARMv7 runs close to the VFP's
// modest sustained rate (0.88) — an easy target to saturate. Wide
// 64-bit vector units (SSE or NEONv2 alike) are shuffle-bound the same
// way, so aarch64 platforms get the vectorized-kernel figure.
func kernelEfficiency(p *platform.Platform) float64 {
	if p.ISA == platform.ARM32 {
		return 0.88
	}
	return 0.60
}

// SmallInstanceTime returns the modeled wall time of the Table II BigDFT
// instance on platform p.
func SmallInstanceTime(p *platform.Platform) float64 {
	return instanceFlops / p.SustainedFlops(true, kernelEfficiency(p))
}

// --- Figures 3c and 4: distributed run --------------------------------

// ScalingConfig parameterizes the distributed BigDFT simulation.
type ScalingConfig struct {
	GridPoints int // wavelet coefficients (default 100^3)
	Iters      int // SCF iterations (default 10)
	// FlopsPerPoint is the per-point work of one iteration (all
	// convolution passes, kinetic + potential + preconditioner).
	FlopsPerPoint float64
	// JitterPct desynchronizes per-rank compute times by up to this
	// fraction (OS noise), which spreads the congestion across
	// alltoallv instances: some end up fully delayed, some partially —
	// the Figure 4 picture.
	JitterPct float64
	Seed      uint64
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.GridPoints <= 0 {
		c.GridPoints = 100 * 100 * 100
	}
	if c.Iters <= 0 {
		c.Iters = 10
	}
	if c.FlopsPerPoint <= 0 {
		c.FlopsPerPoint = 475
	}
	if c.JitterPct <= 0 {
		c.JitterPct = 0.06
	}
	return c
}

// TimeDistributed simulates the distributed run on ranks cores: each
// iteration computes the local convolutions and performs three
// transposes (one per dimension), each an Alltoallv with the linear
// schedule OpenMPI's basic module uses. Per-peer message size is
// total/(p^2): at small scale the rendezvous protocol protects the
// switches; past ~16 ranks messages turn eager and incast drops delay
// the collectives.
func TimeDistributed(c *cluster.Cluster, ranks int, cfg ScalingConfig) (*simmpi.Report, error) {
	return timeDistributed(c, ranks, cfg, false)
}

// TraceDistributed is TimeDistributed with trace collection (Figure 4).
func TraceDistributed(c *cluster.Cluster, ranks int, cfg ScalingConfig) (*simmpi.Report, error) {
	return timeDistributed(c, ranks, cfg, true)
}

func timeDistributed(c *cluster.Cluster, ranks int, cfg ScalingConfig, collectTrace bool) (*simmpi.Report, error) {
	cfg = cfg.withDefaults()
	job := cluster.JobConfig{
		Ranks:           ranks,
		CoreFlopsPerSec: c.CoreFlops(true, kernelEfficiency(c.Node)),
		MemoryBytes:     int64(3 * 8 * cfg.GridPoints), // field + two work arrays
		CollectTrace:    collectTrace,
		// Per iteration: one compute interval plus three linear
		// alltoallv transposes, each 2*(ranks-1) send/recv intervals
		// and a collective interval.
		TraceHint: cfg.Iters * (1 + 3*(2*(ranks-1)+1)),
	}
	totalBytes := 8 * cfg.GridPoints
	flopsPerRank := float64(cfg.GridPoints) * cfg.FlopsPerPoint / float64(ranks)
	return c.Run(job, func(p *simmpi.Proc) error {
		rng := xrand.New(cfg.Seed + uint64(p.Rank())*0x9e3779b9)
		counts := make([]int, p.Size())
		perPeer := totalBytes / (p.Size() * p.Size())
		for i := range counts {
			counts[i] = perPeer
		}
		for iter := 0; iter < cfg.Iters; iter++ {
			jitter := 1 + cfg.JitterPct*(rng.Float64()-0.5)*2
			p.ComputeFlops(flopsPerRank*jitter, "convolution")
			for pass := 0; pass < 3; pass++ {
				if err := p.Alltoallv(counts, simmpi.AlltoallvLinear); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// StrongScaling produces the Figure 3c speedup points (baseline = first
// core count; the paper's instance fits a single node).
func StrongScaling(c *cluster.Cluster, coreCounts []int, cfg ScalingConfig) ([]cluster.SpeedupPoint, error) {
	return cluster.StrongScaling(coreCounts, func(cores int) (*simmpi.Report, error) {
		return TimeDistributed(c, cores, cfg)
	})
}
