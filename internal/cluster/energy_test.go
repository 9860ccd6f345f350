package cluster

import (
	"testing"

	"montblanc/internal/simmpi"
)

// The §IV caution, quantified: switch congestion stretches an
// alltoallv-bound job's makespan, and with it the cluster's
// energy-to-solution — the network inefficiency eats the node
// efficiency.
func TestCongestionEnergyOverhead(t *testing.T) {
	body := func(p *simmpi.Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 40 << 10
		}
		for it := 0; it < 3; it++ {
			p.ComputeFlops(1e7, "work")
			if err := p.Alltoallv(counts, simmpi.AlltoallvLinear); err != nil {
				return err
			}
		}
		return nil
	}
	job := JobConfig{Ranks: 36, CoreFlopsPerSec: 1e9}

	congested, err := Tibidabo(32)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := congested.Run(job, body)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Tibidabo(32)
	if err != nil {
		t.Fatal(err)
	}
	clean.Net.InfiniteBuffers()
	repI, err := clean.Run(job, body)
	if err != nil {
		t.Fatal(err)
	}

	// Both runs span the same 18 nodes at the same node power, so the
	// energy-to-solution ratio is the makespan ratio.
	if overhead := repC.Seconds / repI.Seconds; overhead < 1.3 {
		t.Errorf("congestion energy overhead = %.2fx, want visible (>1.3x)", overhead)
	}
}
