// Package linpack implements the LINPACK benchmark: a dense LU solver
// with partial pivoting (the real algorithm, used by tests and
// benchmarks), the calibrated single-node throughput model behind
// Table II, and a block-cyclic distributed LU over the simulated MPI
// runtime for the Figure 3a strong-scaling study.
package linpack

import (
	"errors"
	"fmt"
	"math"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
	"montblanc/internal/xrand"
)

// Matrix is a dense row-major n x n matrix.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix allocates an n x n zero matrix.
func NewMatrix(n int) *Matrix { return &Matrix{N: n, Data: make([]float64, n*n)} }

// RandomMatrix returns a well-conditioned random matrix (diagonally
// dominated) for benchmarking, seeded deterministically.
func RandomMatrix(n int, seed uint64) *Matrix {
	rng := xrand.New(seed)
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = rng.Float64() - 0.5
		}
		m.Data[i*n+i] += float64(n) // dominance keeps pivots healthy
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{N: m.N, Data: append([]float64(nil), m.Data...)}
}

// Factor computes an in-place LU factorization with partial pivoting
// (PA = LU) and returns the pivot indices. It fails on singularity.
func (m *Matrix) Factor() ([]int, error) {
	n := m.N
	piv := make([]int, n)
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, maxAbs := k, math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(m.At(i, k)); a > maxAbs {
				p, maxAbs = i, a
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("linpack: singular matrix at column %d", k)
		}
		piv[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				m.Data[k*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[k*n+j]
			}
		}
		// Eliminate below the pivot.
		inv := 1 / m.At(k, k)
		for i := k + 1; i < n; i++ {
			l := m.At(i, k) * inv
			m.Set(i, k, l)
			if l == 0 {
				continue
			}
			rowI := m.Data[i*n:]
			rowK := m.Data[k*n:]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return piv, nil
}

// Solve solves A x = b using a factorization computed on a copy of m.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	n := m.N
	if len(b) != n {
		return nil, fmt.Errorf("linpack: rhs length %d != %d", len(b), n)
	}
	lu := m.Clone()
	piv, err := lu.Factor()
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), b...)
	// Apply pivots.
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu.Data[i*n:]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu.Data[i*n:]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Residual returns the normalized residual ||Ax-b|| / (n ||x||), the
// quantity LINPACK uses to validate a solution.
func Residual(a *Matrix, x, b []float64) float64 {
	n := a.N
	var rNorm, xNorm float64
	for i := 0; i < n; i++ {
		s := -b[i]
		row := a.Data[i*n:]
		for j := 0; j < n; j++ {
			s += row[j] * x[j]
		}
		rNorm += s * s
	}
	for _, v := range x {
		xNorm += v * v
	}
	if xNorm == 0 {
		return math.Sqrt(rNorm)
	}
	return math.Sqrt(rNorm) / (float64(n) * math.Sqrt(xNorm))
}

// Flops returns the floating-point operation count of solving one n x n
// system: 2/3 n^3 + 2 n^2, the standard LINPACK accounting.
func Flops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 2*fn*fn
}

// LUEfficiency returns the fraction of the platform's sustained DP rate
// the unchanged-Fortran LINPACK reaches: in-order cores lose more of
// their pipeline to the dependency chains of the unblocked solver.
// Calibration targets Table II: 620 MFLOPS on the Snowball, 24 GFLOPS on
// the Xeon.
func LUEfficiency(p *platform.Platform) float64 {
	if p.CPU.OutOfOrder {
		return 0.98
	}
	return 0.886
}

// Mflops returns the modeled LINPACK throughput of the full node in
// MFLOPS — the Table II row 1 quantity.
func Mflops(p *platform.Platform) float64 {
	return p.SustainedFlops(true, LUEfficiency(p)) / 1e6
}

// SolveTime returns the modeled time to solve an n x n system.
func SolveTime(p *platform.Platform, n int) float64 {
	return Flops(n) / (Mflops(p) * 1e6)
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
	coreRate := c.CoreFlops(true, LUEfficiency(c.Node))
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
