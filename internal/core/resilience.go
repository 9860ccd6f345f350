package core

import (
	"errors"
	"fmt"
	"math"

	"montblanc/internal/cluster"
	"montblanc/internal/fault"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
	"montblanc/internal/trace"
)

// maxSegments bounds how many checkpoint intervals one probe may split
// its work into. The resilience experiments use at most a few hundred
// and the tests about 18,000; a count past the cap is almost always a
// unit mix-up, and simulating it would hold a simulation slot for
// minutes. The count is computed in float64, so a tiny interval or a
// vanishing flop rate cannot overflow it into a small one.
const maxSegments = 1 << 16

// ResilienceConfig parameterizes the checkpointing mini-app behind the
// resilience experiments: every node performs a fixed amount of useful
// work split into checkpoint intervals, writes a checkpoint image
// through DRAM after each interval, and exchanges a ring halo so the
// ranks stay coupled. A fault schedule (resolved per cluster shape by
// internal/fault) injects node crashes: work since the last checkpoint
// is lost and redone after a restart read, and downtime itself is
// frozen time — unrecorded in the trace, so phase-resolved energy
// accounting charges it at idle watts automatically.
type ResilienceConfig struct {
	// Nodes is the job size, one rank per node (>= 2; default 8).
	Nodes int
	// WorkFlops is the useful double-precision work per node (default
	// 4e10). Time-to-solution is the makespan of completing all of it.
	WorkFlops float64
	// CheckpointBytes is the per-node checkpoint image streamed through
	// DRAM after each interval (default 512 MiB). Writing it — and
	// reading it back after a crash — is charged to the memory power
	// state at the platform's memory bandwidth.
	CheckpointBytes float64
	// IntervalSeconds is the checkpoint interval tau: useful work
	// between checkpoints (default 10).
	IntervalSeconds float64
	// HaloBytes is the per-neighbor ring message after each checkpoint
	// (default 256 KiB).
	HaloBytes int
	// Efficiency is the fraction of node peak the work sustains, in
	// (0, 1] (default 0.5).
	Efficiency float64
	// Faults is the resolved fault schedule; nil runs failure-free. It
	// must have been resolved against exactly Nodes nodes.
	Faults *fault.Resolved
}

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.WorkFlops <= 0 {
		c.WorkFlops = 4e10
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 512 << 20
	}
	if c.IntervalSeconds <= 0 {
		c.IntervalSeconds = 10
	}
	if c.HaloBytes <= 0 {
		c.HaloBytes = 256 << 10
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		c.Efficiency = 0.5
	}
	return c
}

// validate refuses hostile numbers that the <= 0 defaulting above lets
// through (NaN compares false against everything, so it would
// otherwise sail into the simulator).
func (c ResilienceConfig) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"work flops", c.WorkFlops},
		{"checkpoint bytes", c.CheckpointBytes},
		{"checkpoint interval", c.IntervalSeconds},
		{"efficiency", c.Efficiency},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("core: resilience %s must be a positive finite number, got %v", f.name, f.v)
		}
	}
	return nil
}

// CheckpointSeconds returns the cost of one checkpoint on the given
// platform: the image streamed at the platform's memory bandwidth.
// Restarts read the image back, so they cost the same.
func (c ResilienceConfig) CheckpointSeconds(p *platform.Platform) float64 {
	return c.withDefaults().CheckpointBytes / p.MemBandwidth
}

// ResilienceResult is one platform's time- and energy-to-solution under
// the configured fault schedule and checkpoint policy.
type ResilienceResult struct {
	Platform *platform.Platform
	Seconds  float64 // time-to-solution (makespan, downtime included)
	// Breakdown is the state-resolved energy: checkpoint and restart
	// I/O at memory watts, lost and useful work at compute watts,
	// downtime at idle watts (it is simply absent from the trace).
	Breakdown trace.EnergyBreakdown
	// Checkpoints is the number of checkpoints each rank wrote.
	Checkpoints int
	// Interval and CheckpointSeconds echo the policy actually used, in
	// this platform's terms.
	Interval          float64
	CheckpointSeconds float64
	// Crashes is the number of outage windows that actually interrupted
	// ranks; DownSeconds is the total frozen rank-time.
	Crashes     uint64
	DownSeconds float64
}

// RunResilienceProbe runs the checkpointing mini-app on a cluster of
// the given platform's nodes under the configured fault schedule.
//
// Recovery protocol (documented in FAULT.md): each rank retries the
// current interval's work until it completes without a crash. A crash
// mid-interval costs the work done since the interval began (recorded
// as lost compute), a restart read (memory state), and the downtime
// (frozen, charged at idle watts). A crash during a checkpoint, a
// restart or a halo exchange merely suspends it — a deliberate
// simplification that keeps every phase a pure function of the rank's
// program and the schedule, which is what keeps fault-injected runs
// byte-identical run to run.
func RunResilienceProbe(p *platform.Platform, cfg ResilienceConfig) (ResilienceResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return ResilienceResult{}, err
	}
	if cfg.Nodes < 2 {
		return ResilienceResult{}, errors.New("core: resilience probe needs at least 2 nodes")
	}
	n := cfg.Nodes
	rate := p.SustainedFlops(true, cfg.Efficiency)
	workSeconds := cfg.WorkFlops / rate
	segs := math.Ceil(workSeconds / cfg.IntervalSeconds)
	if !(segs <= maxSegments) {
		return ResilienceResult{}, fmt.Errorf("core: checkpoint interval %gs splits %.3gs of work on %s into %.3g segments (max %d)",
			cfg.IntervalSeconds, workSeconds, p.Name, segs, maxSegments)
	}
	nSeg := max(int(segs), 1)
	ckpt := cfg.CheckpointBytes / p.MemBandwidth
	restart := ckpt // the restart reads the image back through DRAM

	rep, err := probeCluster(p, n).Run(cluster.JobConfig{
		Ranks:           n,
		RanksPerNode:    1,
		CoreFlopsPerSec: rate,
		CollectTrace:    true,
		Faults:          cfg.Faults,
	}, func(pr *simmpi.Proc) error {
		right := (pr.Rank() + 1) % n
		left := (pr.Rank() + n - 1) % n
		// One rank per node, so this rank's crash times are its node's
		// outage starts, consumed in order as the clock passes them.
		var crashes []simmpi.Outage
		if cfg.Faults != nil {
			crashes = cfg.Faults.NodeOutages(pr.Rank())
		}
		ci := 0
		for seg := 0; seg < nSeg; seg++ {
			segLen := cfg.IntervalSeconds
			if seg == nSeg-1 {
				segLen = workSeconds - cfg.IntervalSeconds*float64(nSeg-1)
			}
			for {
				t0 := pr.Now()
				// Crashes already behind the clock interrupted an earlier
				// phase (checkpoint, restart, halo): those were suspended,
				// not redone, so the work state survives them.
				for ci < len(crashes) && crashes[ci].Start <= t0 {
					ci++
				}
				if ci < len(crashes) && crashes[ci].Start < t0+segLen {
					// The interval dies mid-work: everything since the last
					// checkpoint is lost, then the node freezes through the
					// outage and pays a restart read before retrying.
					pr.Compute(crashes[ci].Start-t0, "resilience-lost")
					pr.Stall(restart, "resilience-restart")
					ci++
					continue
				}
				pr.Compute(segLen, "resilience-work")
				break
			}
			if seg < nSeg-1 {
				pr.Stall(ckpt, "resilience-checkpoint")
			}
			if err := pr.Send(right, seg, cfg.HaloBytes); err != nil {
				return err
			}
			if err := pr.Recv(left, seg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ResilienceResult{}, fmt.Errorf("core: resilience probe on %s: %w", p.Name, err)
	}
	return ResilienceResult{
		Platform:          p,
		Seconds:           rep.Seconds,
		Breakdown:         rep.Trace.EnergyByState(p.Power),
		Checkpoints:       nSeg - 1,
		Interval:          cfg.IntervalSeconds,
		CheckpointSeconds: ckpt,
		Crashes:           rep.Faults.Interrupts,
		DownSeconds:       rep.Faults.DownSeconds,
	}, nil
}
