// Package cluster assembles the Tibidabo experimental HPC cluster
// ([10]): NVIDIA Tegra2 nodes (dual Cortex-A9 @ 1 GHz, 1 GB RAM) with
// PCIe 1 GbE NICs, interconnected hierarchically through 48-port GbE
// switches. It binds a node platform model to a network topology and
// runs simulated MPI jobs on it.
package cluster

import (
	"fmt"

	"montblanc/internal/fault"
	"montblanc/internal/network"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
)

// Cluster is a homogeneous machine: Nodes identical nodes on one fabric.
type Cluster struct {
	Name  string
	Node  *platform.Platform
	Nodes int
	Net   *network.Network
}

// Tibidabo builds a Tibidabo slice with the given number of nodes. Up to
// 32 nodes hang off a single leaf switch; larger slices use the
// hierarchical two-level topology with 1:32 oversubscribed uplinks.
func Tibidabo(nodes int) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", nodes)
	}
	var net *network.Network
	if nodes <= 32 {
		net = network.Star(nodes)
	} else {
		net = network.Tree(nodes, 32)
	}
	node, err := platform.Lookup("Tegra2")
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Name:  fmt.Sprintf("tibidabo-%d", nodes),
		Node:  node,
		Nodes: nodes,
		Net:   net,
	}, nil
}

// Cores returns the total core count.
func (c *Cluster) Cores() int { return c.Nodes * c.Node.Cores }

// TotalRAM returns the aggregate memory in bytes.
func (c *Cluster) TotalRAM() int64 { return int64(c.Nodes) * c.Node.RAMBytes }

// CoreFlops returns the sustained per-core floating-point rate at the
// given precision and kernel efficiency.
func (c *Cluster) CoreFlops(doublePrecision bool, efficiency float64) float64 {
	return c.Node.SustainedFlops(doublePrecision, efficiency) / float64(c.Node.Cores)
}

// JobConfig parameterizes one MPI job.
type JobConfig struct {
	Ranks int
	// RanksPerNode places consecutive ranks this many to a node; 0 means
	// one rank per core. The applications fill every core; the energy
	// and resilience probes run one rank per node, so each rank owns a
	// whole node's power profile and crash stream.
	RanksPerNode    int
	CoreFlopsPerSec float64 // per-rank compute rate (precision-specific)
	CollectTrace    bool
	// TraceHint is the expected number of trace intervals one rank
	// records, forwarded to the simulator as a buffer capacity hint
	// (see simmpi.Config.TraceHint). Zero is fine; it never changes
	// results.
	TraceHint int
	// MemoryBytes is the job's total footprint; the job must fit the
	// nodes it spans (the paper's SPECFEM3D instance needs >= 2 nodes).
	MemoryBytes int64
	// Faults is an optional resolved fault schedule: its node outages
	// feed the simulator and its link faults are applied to the fabric
	// after the pre-run reset. It must have been resolved for exactly
	// the cluster's node count. Nil means a failure-free run.
	Faults *fault.Resolved
}

// ranksPerNode is the job's placement: RanksPerNode, or one rank per
// core by default.
func (c *Cluster) ranksPerNode(job JobConfig) int {
	if job.RanksPerNode > 0 {
		return job.RanksPerNode
	}
	return c.Node.Cores
}

// Validate checks the job against the cluster.
func (c *Cluster) Validate(job JobConfig) error {
	if job.Ranks <= 0 {
		return fmt.Errorf("cluster: job needs ranks, got %d", job.Ranks)
	}
	if job.RanksPerNode < 0 {
		return fmt.Errorf("cluster: ranks per node must be >= 0, got %d", job.RanksPerNode)
	}
	rpn := c.ranksPerNode(job)
	nodes := (job.Ranks + rpn - 1) / rpn
	if nodes > c.Nodes {
		return fmt.Errorf("cluster: %d ranks need %d nodes, %s has %d",
			job.Ranks, nodes, c.Name, c.Nodes)
	}
	// A schedule resolved for another node count would put outages on
	// nodes this cluster lacks, or leave some of its nodes without any.
	if job.Faults != nil && job.Faults.Nodes != c.Nodes {
		return fmt.Errorf("cluster: fault schedule resolved for %d nodes, %s has %d",
			job.Faults.Nodes, c.Name, c.Nodes)
	}
	if job.MemoryBytes > 0 {
		avail := int64(nodes) * c.Node.RAMBytes
		if job.MemoryBytes > avail {
			return fmt.Errorf("cluster: job needs %d bytes, %d nodes provide %d (use more nodes)",
				job.MemoryBytes, nodes, avail)
		}
	}
	return nil
}

// MinNodesFor returns the smallest node count whose aggregate RAM fits
// the footprint.
func (c *Cluster) MinNodesFor(memoryBytes int64) int {
	if memoryBytes <= 0 {
		return 1
	}
	n := int((memoryBytes + c.Node.RAMBytes - 1) / c.Node.RAMBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes body as an MPI job on a freshly reset fabric. It is the
// one place a simulation is configured and a fault schedule applied.
func (c *Cluster) Run(job JobConfig, body func(*simmpi.Proc) error) (*simmpi.Report, error) {
	if err := c.Validate(job); err != nil {
		return nil, err
	}
	c.Net.Reset()
	cfg := simmpi.Config{
		Ranks:           job.Ranks,
		Net:             c.Net,
		RanksPerNode:    c.ranksPerNode(job),
		CoreFlopsPerSec: job.CoreFlopsPerSec,
		CollectTrace:    job.CollectTrace,
		TraceHint:       job.TraceHint,
	}
	if job.Faults != nil {
		if err := job.Faults.Apply(c.Net); err != nil {
			return nil, err
		}
		cfg.Outages = job.Faults.Outages
	}
	return simmpi.Run(cfg, body)
}

// NodesFor returns how many nodes a job with the given rank count spans.
func (c *Cluster) NodesFor(ranks int) int {
	return (ranks + c.Node.Cores - 1) / c.Node.Cores
}

// JobEnergy returns the energy in joules consumed by a completed job:
// the spanned nodes at full node power for the job's duration. The
// paper's §IV caution lives here — "the node power efficiency is likely
// to be counterbalanced by the network inefficiency": congestion
// stretches the makespan, and the nodes burn power throughout.
func (c *Cluster) JobEnergy(rep *simmpi.Report, ranks int) float64 {
	return float64(c.NodesFor(ranks)) * c.Node.Power.Compute * rep.Seconds
}

// SpeedupPoint is one point of a strong-scaling curve (Figure 3).
type SpeedupPoint struct {
	Cores      int
	Seconds    float64
	Speedup    float64 // versus the baseline point, scaled to its cores
	Efficiency float64 // Speedup / Cores
	Drops      uint64
}

// StrongScaling runs one job per core count and derives speedups
// against the first (baseline) point, exactly like Figure 3 does —
// SPECFEM3D's baseline is a 4-core run because the instance cannot fit
// fewer than two nodes. run simulates the job on the given cores.
func StrongScaling(coreCounts []int, run func(cores int) (*simmpi.Report, error)) ([]SpeedupPoint, error) {
	if len(coreCounts) == 0 {
		return nil, fmt.Errorf("cluster: no core counts")
	}
	points := make([]SpeedupPoint, 0, len(coreCounts))
	for _, cores := range coreCounts {
		rep, err := run(cores)
		if err != nil {
			return nil, fmt.Errorf("cluster: %d cores: %w", cores, err)
		}
		points = append(points, SpeedupPoint{
			Cores:   cores,
			Seconds: rep.Seconds,
			Drops:   rep.Drops,
		})
	}
	base := points[0]
	for i := range points {
		if points[i].Seconds > 0 {
			points[i].Speedup = base.Seconds / points[i].Seconds * float64(base.Cores)
			points[i].Efficiency = points[i].Speedup / float64(points[i].Cores)
		}
	}
	return points, nil
}
