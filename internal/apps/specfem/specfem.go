// Package specfem reproduces the SPECFEM3D workload of the paper: a
// continuous-Galerkin spectral-element wave propagation code. It
// contains a real, tested spectral-element kernel (1-D acoustic wave
// equation, degree-4 GLL elements, leapfrog time stepping — the same
// numerics class as SPECFEM3D's per-element operators), the calibrated
// single-node time model behind Table II row 4, and the distributed
// halo-exchange version whose neighbour-only communication pattern gives
// the excellent strong scaling of Figure 3b.
package specfem

import (
	"errors"
	"math"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/simmpi"
	"montblanc/internal/units"
)

// Degree is the spectral-element polynomial degree (SPECFEM's default 4).
const Degree = 4

// nodesPerElem is the number of GLL points per element.
const nodesPerElem = Degree + 1

// gllPoints holds the Gauss-Lobatto-Legendre nodes for degree 4 on
// [-1, 1].
var gllPoints = [nodesPerElem]float64{
	-1, -math.Sqrt(3.0 / 7.0), 0, math.Sqrt(3.0 / 7.0), 1,
}

// gllWeights are the matching quadrature weights.
var gllWeights = [nodesPerElem]float64{
	1.0 / 10, 49.0 / 90, 32.0 / 45, 49.0 / 90, 1.0 / 10,
}

// lagrangeDeriv returns d/dx of Lagrange basis j evaluated at node i.
func lagrangeDeriv(j, i int) float64 {
	// l_j(x) = prod_{m != j} (x - x_m)/(x_j - x_m)
	// l_j'(x_i) = sum_{k != j} 1/(x_j - x_k) * prod_{m != j,k} (x_i - x_m)/(x_j - x_m)
	xi := gllPoints[i]
	xj := gllPoints[j]
	if i == j {
		s := 0.0
		for k := 0; k < nodesPerElem; k++ {
			if k != j {
				s += 1 / (xj - gllPoints[k])
			}
		}
		return s
	}
	num := 1.0
	for m := 0; m < nodesPerElem; m++ {
		if m != j && m != i {
			num *= xi - gllPoints[m]
		}
	}
	den := 1.0
	for m := 0; m < nodesPerElem; m++ {
		if m != j {
			den *= xj - gllPoints[m]
		}
	}
	return num / den
}

// Solver is a 1-D spectral-element acoustic wave solver on [0, L] with
// periodic boundary conditions.
type Solver struct {
	Elems int
	L     float64 // domain length
	C     float64 // wave speed

	nGlobal int
	h       float64 // element size
	// stiff is the element stiffness matrix K[i][j] (reference element,
	// scaled by 2/h); mass is the lumped diagonal global mass matrix.
	stiff [nodesPerElem][nodesPerElem]float64
	mass  []float64

	U []float64 // displacement at global GLL points
	V []float64 // velocity
}

// NewSolver builds a solver with the given element count, domain length
// and wave speed.
func NewSolver(elems int, length, c float64) (*Solver, error) {
	if elems < 2 {
		return nil, errors.New("specfem: need at least two elements")
	}
	if length <= 0 || c <= 0 {
		return nil, errors.New("specfem: non-positive length or wave speed")
	}
	s := &Solver{
		Elems:   elems,
		L:       length,
		C:       c,
		nGlobal: elems * Degree, // periodic: last point wraps to first
		h:       length / float64(elems),
	}
	// Reference stiffness: K[i][j] = sum_k w_k l_i'(x_k) l_j'(x_k),
	// scaled by (2/h) for the mapping (the (h/2) Jacobian and two (2/h)
	// derivative factors combine to 2/h).
	for i := 0; i < nodesPerElem; i++ {
		for j := 0; j < nodesPerElem; j++ {
			sum := 0.0
			for k := 0; k < nodesPerElem; k++ {
				sum += gllWeights[k] * lagrangeDeriv(i, k) * lagrangeDeriv(j, k)
			}
			s.stiff[i][j] = sum * 2 / s.h
		}
	}
	// Lumped mass: M_global[g] += w_i * h/2 assembled over elements.
	s.mass = make([]float64, s.nGlobal)
	for e := 0; e < elems; e++ {
		for i := 0; i < nodesPerElem; i++ {
			g := s.globalIndex(e, i)
			s.mass[g] += gllWeights[i] * s.h / 2
		}
	}
	s.U = make([]float64, s.nGlobal)
	s.V = make([]float64, s.nGlobal)
	return s, nil
}

// globalIndex maps element-local node i of element e to the global
// continuous numbering (shared endpoints, periodic wrap).
func (s *Solver) globalIndex(e, i int) int {
	return (e*Degree + i) % s.nGlobal
}

// X returns the coordinate of global point g.
func (s *Solver) X(g int) float64 {
	e := g / Degree
	i := g % Degree
	return float64(e)*s.h + (gllPoints[i]+1)/2*s.h
}

// SetGaussian initializes the displacement to a Gaussian pulse centered
// at x0 with width sigma, at rest.
func (s *Solver) SetGaussian(x0, sigma float64) {
	for g := 0; g < s.nGlobal; g++ {
		d := s.X(g) - x0
		s.U[g] = math.Exp(-d * d / (2 * sigma * sigma))
		s.V[g] = 0
	}
}

// forces computes F = -c^2 K u assembled over elements.
func (s *Solver) forces(f []float64) {
	for g := range f {
		f[g] = 0
	}
	c2 := s.C * s.C
	var local [nodesPerElem]float64
	for e := 0; e < s.Elems; e++ {
		for i := 0; i < nodesPerElem; i++ {
			local[i] = s.U[s.globalIndex(e, i)]
		}
		for i := 0; i < nodesPerElem; i++ {
			sum := 0.0
			for j := 0; j < nodesPerElem; j++ {
				sum += s.stiff[i][j] * local[j]
			}
			f[s.globalIndex(e, i)] -= c2 * sum
		}
	}
}

// StableDt returns a CFL-safe time step.
func (s *Solver) StableDt() float64 {
	// Minimum GLL spacing within an element scaled to physical size.
	minDx := (gllPoints[1] - gllPoints[0]) / 2 * s.h
	return 0.5 * minDx / s.C
}

// Step advances the solution by dt using velocity-Verlet (leapfrog).
func (s *Solver) Step(dt float64) {
	f := make([]float64, s.nGlobal)
	s.forces(f)
	for g := range s.U {
		a := f[g] / s.mass[g]
		s.V[g] += 0.5 * dt * a
		s.U[g] += dt * s.V[g]
	}
	s.forces(f)
	for g := range s.U {
		a := f[g] / s.mass[g]
		s.V[g] += 0.5 * dt * a
	}
}

// Run advances steps time steps of size dt.
func (s *Solver) Run(steps int, dt float64) {
	for i := 0; i < steps; i++ {
		s.Step(dt)
	}
}

// Energy returns the discrete total energy (kinetic + potential), a
// conserved quantity of the leapfrog scheme.
func (s *Solver) Energy() float64 {
	kin := 0.0
	for g, v := range s.V {
		kin += 0.5 * s.mass[g] * v * v
	}
	pot := 0.0
	c2 := s.C * s.C
	var local [nodesPerElem]float64
	for e := 0; e < s.Elems; e++ {
		for i := 0; i < nodesPerElem; i++ {
			local[i] = s.U[s.globalIndex(e, i)]
		}
		for i := 0; i < nodesPerElem; i++ {
			for j := 0; j < nodesPerElem; j++ {
				pot += 0.5 * c2 * local[i] * s.stiff[i][j] * local[j]
			}
		}
	}
	return kin + pot
}

// FlopsPerElemStep is the per-element, per-step floating point work of
// the 3-D production code (stiffness application over a 5^3 GLL cube
// with three directional contractions): the constant feeding both the
// Table II model and the scaling study.
const FlopsPerElemStep = 5000

// --- Table II model -------------------------------------------------

// scalarFlopsPerCycle is the sustained per-core rate of the unchanged
// Fortran build: gfortran 4.6 emits scalar code, so the Xeon runs far
// below its SSE peak and the Snowball's single-precision VFP is not
// NEON-vectorized either (softfp ABI). Calibrated against Table II:
// 186.8 s vs 23.5 s. The 0.35 figure is the ARMv7 softfp penalty; a
// hard-float aarch64 toolchain has no such handicap, so 64-bit
// platforms land in the server scalar class.
func scalarFlopsPerCycle(p *platform.Platform) float64 {
	if p.ISA == platform.ARM32 {
		return 0.35
	}
	return 0.45
}

// Table II instance characteristics: single-precision flop volume and
// memory traffic of the paper's small test case.
const (
	instanceFlops = 100e9
	instanceBytes = 80e9
)

// SmallInstanceTime returns the modeled wall time of the Table II
// SPECFEM3D instance on platform p: compute at scalar rate plus the
// exposed fraction of the memory traffic.
func SmallInstanceTime(p *platform.Platform) float64 {
	rate := float64(p.Cores) * p.CPU.ClockHz * scalarFlopsPerCycle(p)
	compute := instanceFlops / rate
	memory := instanceBytes / p.MemBandwidth * (1 - p.CPU.MissOverlap)
	return compute + memory
}

// --- Figure 3b: distributed strong scaling ---------------------------

// ScalingConfig parameterizes the distributed run.
type ScalingConfig struct {
	Elems int // total spectral elements (default 98304)
	Steps int // time steps (default 100)
	// HaloBytesPerEdgeElem is the face data exchanged per boundary
	// element per neighbour per step.
	HaloBytesPerEdgeElem int
	// MemoryBytes is the instance footprint; the paper's use case does
	// not fit one Tibidabo node, forcing a 4-core (2-node) baseline.
	MemoryBytes int64
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.Elems <= 0 {
		// A 512x512-element use case: large enough that compute
		// dominates the (latency-bound) halo exchange out to 200 cores,
		// matching Figure 3b's ~90% efficiency.
		c.Elems = 262144
	}
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.HaloBytesPerEdgeElem <= 0 {
		c.HaloBytesPerEdgeElem = 300 // 5x5 face points x 3 fields x 4B
	}
	if c.MemoryBytes <= 0 {
		c.MemoryBytes = 1400 * units.MiB
	}
	return c
}

// grid factors ranks into the most square rows x cols decomposition.
func grid(ranks int) (rows, cols int) {
	rows = int(math.Sqrt(float64(ranks)))
	for rows > 1 && ranks%rows != 0 {
		rows--
	}
	return rows, ranks / rows
}

// kernelEfficiency is the fraction of the platform's SP rate the real
// assembled stiffness kernel reaches.
const kernelEfficiency = 0.7

// TimeDistributed simulates the strong-scaling run on ranks cores: each
// time step computes the local elements and exchanges halos with the
// 2-D grid neighbours (point-to-point only — the pattern that keeps
// SPECFEM3D off the congested switch paths).
func TimeDistributed(c *cluster.Cluster, ranks int, cfg ScalingConfig) (*simmpi.Report, error) {
	cfg = cfg.withDefaults()
	job := cluster.JobConfig{
		Ranks:           ranks,
		CoreFlopsPerSec: c.CoreFlops(false, kernelEfficiency),
		MemoryBytes:     cfg.MemoryBytes,
	}
	rows, cols := grid(ranks)
	elemsPerRank := float64(cfg.Elems) / float64(ranks)
	edge := int(math.Sqrt(elemsPerRank))
	if edge < 1 {
		edge = 1
	}
	halo := edge * cfg.HaloBytesPerEdgeElem
	const haloTag = 77
	return c.Run(job, func(p *simmpi.Proc) error {
		r, cl := p.Rank()/cols, p.Rank()%cols
		var neighbours []int
		if r > 0 {
			neighbours = append(neighbours, p.Rank()-cols)
		}
		if r < rows-1 {
			neighbours = append(neighbours, p.Rank()+cols)
		}
		if cl > 0 {
			neighbours = append(neighbours, p.Rank()-1)
		}
		if cl < cols-1 {
			neighbours = append(neighbours, p.Rank()+1)
		}
		// The 2-D grid is bipartite: checkerboard-parity phases stagger
		// the halo traffic (evens send while odds receive, then the
		// reverse), the standard trick that keeps the exchange off the
		// switch buffers — this is why SPECFEM3D never congests.
		evenCell := (r+cl)%2 == 0
		for step := 0; step < cfg.Steps; step++ {
			p.ComputeFlops(elemsPerRank*FlopsPerElemStep, "stiffness")
			tag := haloTag + step%16
			sendAll := func() error {
				for _, nb := range neighbours {
					if err := p.Send(nb, tag, halo); err != nil {
						return err
					}
				}
				return nil
			}
			recvAll := func() error {
				for _, nb := range neighbours {
					if err := p.Recv(nb, tag); err != nil {
						return err
					}
				}
				return nil
			}
			if evenCell {
				if err := sendAll(); err != nil {
					return err
				}
				if err := recvAll(); err != nil {
					return err
				}
			} else {
				if err := recvAll(); err != nil {
					return err
				}
				if err := sendAll(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// StrongScaling produces the Figure 3b speedup points. The first core
// count is the baseline (the paper uses 4 cores: the instance cannot run
// on fewer than two nodes).
func StrongScaling(c *cluster.Cluster, coreCounts []int, cfg ScalingConfig) ([]cluster.SpeedupPoint, error) {
	return cluster.StrongScaling(coreCounts, func(cores int) (*simmpi.Report, error) {
		return TimeDistributed(c, cores, cfg)
	})
}
