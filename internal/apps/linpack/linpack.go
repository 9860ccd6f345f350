// Package linpack models the LINPACK benchmark: the calibrated
// single-node throughput model behind Table II, and a block-cyclic
// distributed LU over the simulated MPI runtime for the Figure 3a
// strong-scaling study.
package linpack

import (
	"errors"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
)

// luEfficiency returns the fraction of the platform's sustained DP rate
// the unchanged-Fortran LINPACK reaches: in-order cores lose more of
// their pipeline to the dependency chains of the unblocked solver.
// Calibration targets Table II: 620 MFLOPS on the Snowball, 24 GFLOPS on
// the Xeon.
func luEfficiency(p *platform.Platform) float64 {
	if p.CPU.OutOfOrder {
		return 0.98
	}
	return 0.886
}

// Mflops returns the modeled LINPACK throughput of the full node in
// MFLOPS — the Table II row 1 quantity.
func Mflops(p *platform.Platform) float64 {
	return p.SustainedFlops(true, luEfficiency(p)) / 1e6
}

// ScalingConfig parameterizes the distributed block LU run.
type ScalingConfig struct {
	N  int // matrix order
	NB int // panel width (block size)
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.N <= 0 {
		// Sized to Figure 3a: ~3.4 GB of matrix needs four nodes, and
		// compute dominates communication up to ~100 cores.
		c.N = 20480
	}
	if c.NB <= 0 {
		c.NB = 32
	}
	return c
}

// TimeDistributed simulates an HPL-style distributed LU on the cluster:
// column panels are block-cyclic over ranks; each step factors a panel
// on its owner, broadcasts it (BcastLarge: binomial scatter, then ring
// allgather), and updates the trailing matrix in parallel. It returns
// the simulated report.
func TimeDistributed(c *cluster.Cluster, ranks int, cfg ScalingConfig) (*simmpi.Report, error) {
	cfg = cfg.withDefaults()
	if cfg.N%cfg.NB != 0 {
		return nil, errors.New("linpack: N must be a multiple of NB")
	}
	coreRate := c.CoreFlops(true, luEfficiency(c.Node))
	job := cluster.JobConfig{
		Ranks:           ranks,
		CoreFlopsPerSec: coreRate,
		// The matrix dominates memory: 8 N^2 bytes.
		MemoryBytes: int64(8 * cfg.N * cfg.N),
	}
	panels := cfg.N / cfg.NB
	return c.Run(job, func(p *simmpi.Proc) error {
		n, nb := float64(cfg.N), float64(cfg.NB)
		for k := 0; k < panels; k++ {
			rows := n - float64(k)*nb
			owner := k % p.Size()
			if p.Rank() == owner {
				// Panel factorization: ~ rows * nb^2 flops.
				p.ComputeFlops(rows*nb*nb, "panel")
			}
			if err := p.BcastLarge(owner, int(rows*nb*8)); err != nil {
				return err
			}
			// Trailing update: 2 * rows * cols * nb flops split evenly.
			cols := rows - nb
			if cols > 0 {
				p.ComputeFlops(2*rows*cols*nb/float64(p.Size()), "update")
			}
		}
		return p.Barrier()
	})
}

// StrongScaling produces the Figure 3a speedup curve for the given core
// counts.
func StrongScaling(c *cluster.Cluster, coreCounts []int, cfg ScalingConfig) ([]cluster.SpeedupPoint, error) {
	return cluster.StrongScaling(coreCounts, func(cores int) (*simmpi.Report, error) {
		return TimeDistributed(c, cores, cfg)
	})
}
