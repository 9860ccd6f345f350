package core

import (
	"errors"
	"fmt"

	"montblanc/internal/cluster"
	"montblanc/internal/network"
	"montblanc/internal/platform"
	"montblanc/internal/power"
	"montblanc/internal/simmpi"
	"montblanc/internal/trace"
)

// PhaseProbeConfig parameterizes the canonical phased mini-app behind
// the energy-phases experiment: every node alternates a fixed amount of
// compute, a fixed memory sweep and a ring halo exchange on a shared
// GbE fabric. The work per iteration is platform-independent; the
// *time* each platform spends per phase is not, which is exactly what
// phase-resolved energy accounting is after.
type PhaseProbeConfig struct {
	// Nodes is the job size, one rank per node (>= 2; default 8).
	Nodes int
	// Iters is the number of compute/memory/exchange rounds (default 10).
	Iters int
	// FlopsPerIter is the double-precision work each node performs per
	// round (default 2e9).
	FlopsPerIter float64
	// SweepBytes is the DRAM traffic of the memory phase per round
	// (default 64 MiB).
	SweepBytes float64
	// HaloBytes is the per-neighbor message size of the ring exchange
	// (default 256 KiB — above the eager threshold, so transfers are
	// flow-controlled and drop-free).
	HaloBytes int
	// Efficiency is the fraction of node peak the compute phase
	// sustains, in (0, 1] (default 0.5).
	Efficiency float64
	// Imbalance skews rank 0's compute phase by this fraction: the
	// straggler makes the other ranks block and, at the end of the job,
	// finish at different times — the idle tails real phase traces
	// show. Zero means a perfectly balanced job (no default is applied:
	// balance is a legitimate request); negative values are treated as
	// zero.
	Imbalance float64
}

func (c PhaseProbeConfig) withDefaults() PhaseProbeConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Iters <= 0 {
		c.Iters = 10
	}
	if c.FlopsPerIter <= 0 {
		c.FlopsPerIter = 2e9
	}
	if c.SweepBytes <= 0 {
		c.SweepBytes = 64 << 20
	}
	if c.HaloBytes <= 0 {
		c.HaloBytes = 256 << 10
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		c.Efficiency = 0.5
	}
	if c.Imbalance < 0 {
		c.Imbalance = 0
	}
	return c
}

// PhaseEnergy is one platform's phase-resolved accounting of the probe:
// where the time went and where the joules went.
type PhaseEnergy struct {
	Platform  *platform.Platform
	Seconds   float64 // job makespan
	Breakdown trace.EnergyBreakdown
	// EnvelopeJoules is what the paper's constant model (§III.C) would
	// charge for the same run: nodes x envelope x makespan. For a
	// uniform profile Breakdown.Total equals it exactly.
	EnvelopeJoules float64
}

// RunPhaseProbe runs the phased mini-app on a cluster of the given
// platform's nodes (one rank per node, so each rank is charged the full
// node profile) and integrates the platform's power profile over the
// resulting trace.
func RunPhaseProbe(p *platform.Platform, cfg PhaseProbeConfig) (PhaseEnergy, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return PhaseEnergy{}, errors.New("core: phase probe needs at least 2 nodes")
	}
	n := cfg.Nodes
	sweepSeconds := cfg.SweepBytes / p.MemBandwidth
	rep, err := probeCluster(p, n).Run(cluster.JobConfig{
		Ranks:           n,
		RanksPerNode:    1,
		CoreFlopsPerSec: p.SustainedFlops(true, cfg.Efficiency),
		CollectTrace:    true,
	}, func(pr *simmpi.Proc) error {
		right := (pr.Rank() + 1) % n
		left := (pr.Rank() + n - 1) % n
		flops := cfg.FlopsPerIter
		if pr.Rank() == 0 {
			flops *= 1 + cfg.Imbalance
		}
		for it := 0; it < cfg.Iters; it++ {
			pr.ComputeFlops(flops, "phase-compute")
			pr.Stall(sweepSeconds, "phase-memory")
			if err := pr.Send(right, it, cfg.HaloBytes); err != nil {
				return err
			}
			if err := pr.Recv(left, it); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return PhaseEnergy{}, fmt.Errorf("core: phase probe on %s: %w", p.Name, err)
	}
	b := rep.Trace.EnergyByState(p.Power)
	return PhaseEnergy{
		Platform:       p,
		Seconds:        rep.Seconds,
		Breakdown:      b,
		EnvelopeJoules: float64(n) * p.Power.Energy(rep.Seconds),
	}, nil
}

// probeCluster is the machine both probes run on: n nodes of p on one
// GbE switch.
func probeCluster(p *platform.Platform, n int) *cluster.Cluster {
	return &cluster.Cluster{
		Name:  fmt.Sprintf("%s-star-%d", p.Name, n),
		Node:  p,
		Nodes: n,
		Net:   network.Star(n),
	}
}

// PhaseStates lists the accounting states in the order the energy-phase
// reports render them: the active states first, idle last.
func PhaseStates() []power.State {
	return []power.State{power.StateCompute, power.StateMemory, power.StateComm, power.StateIdle}
}
