package cluster

import (
	"strings"
	"testing"

	"montblanc/internal/simmpi"
	"montblanc/internal/units"
)

func TestTibidaboConstruction(t *testing.T) {
	c, err := Tibidabo(16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores() != 32 {
		t.Errorf("cores = %d, want 32", c.Cores())
	}
	if ram := int64(c.Nodes) * c.Node.RAMBytes; ram != 16*units.GiB {
		t.Errorf("RAM = %d", ram)
	}
	if _, err := Tibidabo(0); err == nil {
		t.Error("zero nodes accepted")
	}
	// Large slices get the hierarchical topology (cross-leaf = 4 hops).
	big, err := Tibidabo(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := big.Net.Send(0, 0, 63, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops != 4 {
		t.Errorf("cross-leaf hops = %d, want 4", res.Hops)
	}
}

func TestValidateJob(t *testing.T) {
	c, _ := Tibidabo(4)
	if err := c.Validate(JobConfig{Ranks: 8}); err != nil {
		t.Errorf("8 ranks on 4 dual-core nodes rejected: %v", err)
	}
	if err := c.Validate(JobConfig{Ranks: 9}); err == nil {
		t.Error("9 ranks on 8 cores accepted")
	}
	if err := c.Validate(JobConfig{Ranks: 0}); err == nil {
		t.Error("0 ranks accepted")
	}
	if err := c.Validate(JobConfig{Ranks: 8, RanksPerNode: 1}); err == nil {
		t.Error("8 ranks at one per node accepted on 4 nodes")
	}
	if err := c.Validate(JobConfig{Ranks: 4, RanksPerNode: -1}); err == nil {
		t.Error("negative ranks per node accepted")
	}
}

// The paper's SPECFEM3D memory constraint: "one node does not have
// enough memory to load this instance, which hence requires at least two
// nodes".
func TestMemoryConstraintForcesTwoNodes(t *testing.T) {
	c, _ := Tibidabo(8)
	instance := int64(1400 * units.MiB) // > 1 node's 1GB
	err := c.Validate(JobConfig{Ranks: 2, MemoryBytes: instance})
	if err == nil || !strings.Contains(err.Error(), "more nodes") {
		t.Errorf("2 ranks (1 node) should fail the memory check: %v", err)
	}
	if err := c.Validate(JobConfig{Ranks: 4, MemoryBytes: instance}); err != nil {
		t.Errorf("4 ranks (2 nodes) should fit: %v", err)
	}
}

func TestRunResetsFabric(t *testing.T) {
	c, _ := Tibidabo(8)
	job := JobConfig{Ranks: 16, CoreFlopsPerSec: 1e9}
	body := func(p *simmpi.Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 32 << 10
		}
		return p.Alltoallv(counts, simmpi.AlltoallvLinear)
	}
	a, err := c.Run(job, body)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Run(job, body)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.Drops != b.Drops {
		t.Error("fabric state leaked between runs")
	}
}

func TestStrongScalingPerfectlyParallelJob(t *testing.T) {
	c, _ := Tibidabo(16)
	const totalFlops = 32e9
	points, err := StrongScaling([]int{1, 2, 4, 8, 16, 32}, func(cores int) (*simmpi.Report, error) {
		return c.Run(JobConfig{Ranks: cores, CoreFlopsPerSec: 1e9}, func(p *simmpi.Proc) error {
			p.ComputeFlops(totalFlops/float64(p.Size()), "work")
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Efficiency < 0.999 || pt.Efficiency > 1.001 {
			t.Errorf("%d cores: efficiency %.3f, want 1.0 (no communication)",
				pt.Cores, pt.Efficiency)
		}
	}
	if points[0].Speedup != 1 {
		t.Errorf("baseline speedup = %v", points[0].Speedup)
	}
}

func TestStrongScalingBaselineOffset(t *testing.T) {
	// With a 4-core baseline, speedup at 4 cores is 4 by definition.
	c, _ := Tibidabo(16)
	points, err := StrongScaling([]int{4, 8}, func(cores int) (*simmpi.Report, error) {
		return c.Run(JobConfig{Ranks: cores, CoreFlopsPerSec: 1e9}, func(p *simmpi.Proc) error {
			p.ComputeFlops(8e9/float64(p.Size()), "work")
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Speedup != 4 {
		t.Errorf("baseline speedup = %v, want 4", points[0].Speedup)
	}
	if points[1].Speedup < 7.9 || points[1].Speedup > 8.1 {
		t.Errorf("8-core speedup = %v, want ~8", points[1].Speedup)
	}
}

func TestStrongScalingErrors(t *testing.T) {
	c, _ := Tibidabo(2)
	if _, err := StrongScaling(nil, nil); err == nil {
		t.Error("empty core counts accepted")
	}
	_, err := StrongScaling([]int{64}, func(cores int) (*simmpi.Report, error) {
		return c.Run(JobConfig{Ranks: cores, CoreFlopsPerSec: 1e9},
			func(p *simmpi.Proc) error { return nil })
	})
	if err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestCoreFlops(t *testing.T) {
	c, _ := Tibidabo(1)
	sp := c.CoreFlops(false, 1)
	dp := c.CoreFlops(true, 1)
	if sp <= dp {
		t.Error("SP per-core rate should exceed DP")
	}
	if dp != c.Node.CPU.ClockHz*c.Node.CPU.FlopsPerCycleDP {
		t.Errorf("per-core DP rate = %v", dp)
	}
}
