// Package core is the characterization framework that ties the
// reproduction together: the Mont-Blanc application catalog (Table I),
// the workload abstraction, and the platform comparison engine that
// produces Table II — performance ratios and the paper's conservative
// energy ratios (full 2.5 W for the Snowball against the Xeon's full
// 95 W TDP).
package core

import (
	"montblanc/internal/apps/bigdft"
	"montblanc/internal/apps/chess"
	"montblanc/internal/apps/coremark"
	"montblanc/internal/apps/linpack"
	"montblanc/internal/apps/specfem"
	"montblanc/internal/platform"
)

// Application is one entry of the Mont-Blanc portfolio (Table I).
type Application struct {
	Code        string
	Domain      string
	Institution string
}

// MontBlancApplications returns the eleven applications selected by the
// Mont-Blanc project, exactly as listed in Table I.
func MontBlancApplications() []Application {
	return []Application{
		{"YALES2", "Combustion", "CNRS/CORIA"},
		{"EUTERPE", "Fusion", "BSC"},
		{"SPECFEM3D", "Wave Propagation", "CNRS"},
		{"MP2C", "Multi-particle Collision", "JSC"},
		{"BigDFT", "Electronic Structure", "CEA"},
		{"Quantum Expresso", "Electronic Structure", "CINECA"},
		{"PEPC", "Coulomb & Gravitational Forces", "JSC"},
		{"SMMP", "Protein Folding", "JSC"},
		{"PorFASI", "Protein Folding", "JSC"},
		{"COSMO", "Weather Forecast", "CINECA"},
		{"BQCD", "Particle Physics", "LRZ"},
	}
}

// Metric distinguishes throughput workloads (bigger is better) from
// time-to-solution workloads (smaller is better).
type Metric int

// Workload metrics.
const (
	Rate Metric = iota // e.g. MFLOPS, ops/s
	Time               // seconds
)

// Workload is one benchmark of the single-node study.
type Workload struct {
	Name    string
	Metric  Metric
	Unit    string
	Measure func(p *platform.Platform) (float64, error)
}

// TableIIWorkloads returns the five benchmarks of Table II in paper
// order, wired to the application models.
func TableIIWorkloads() []Workload {
	return []Workload{
		{
			Name: "LINPACK", Metric: Rate, Unit: "MFLOPS",
			Measure: func(p *platform.Platform) (float64, error) {
				return linpack.Mflops(p), nil
			},
		},
		{
			Name: "CoreMark", Metric: Rate, Unit: "ops/s",
			Measure: func(p *platform.Platform) (float64, error) {
				return coremark.Score(p), nil
			},
		},
		{
			Name: "StockFish", Metric: Rate, Unit: "ops/s",
			Measure: func(p *platform.Platform) (float64, error) {
				return chess.NodesPerSecond(p), nil
			},
		},
		{
			Name: "SPECFEM3D", Metric: Time, Unit: "s",
			Measure: func(p *platform.Platform) (float64, error) {
				return specfem.SmallInstanceTime(p), nil
			},
		},
		{
			Name: "BigDFT", Metric: Time, Unit: "s",
			Measure: func(p *platform.Platform) (float64, error) {
				return bigdft.SmallInstanceTime(p), nil
			},
		},
	}
}

// Comparison is one row of Table II: a candidate platform (the Snowball)
// against a reference (the Xeon).
type Comparison struct {
	Workload  string
	Unit      string
	Metric    Metric
	Candidate float64 // Snowball column
	Reference float64 // Xeon column
	// Ratio is the reference's advantage: reference/candidate for
	// rates, candidate/reference for times — always >= 1 when the
	// reference is faster, matching the paper's "Ratio" column.
	Ratio float64
	// EnergyRatio is candidate energy / reference energy for the same
	// work; < 1 means the candidate needs less energy.
	EnergyRatio float64
}

// TableII produces the paper's Table II: Snowball vs Xeon X5550 on the
// five workloads, read off the two-platform sweep.
func TableII() ([]Comparison, error) {
	s, err := RunSweep([]*platform.Platform{
		platform.MustLookup("Snowball"), platform.MustLookup("XeonX5550"),
	}, TableIIWorkloads())
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(s.Workloads))
	for wi, w := range s.Workloads {
		out[wi] = Comparison{
			Workload: w.Name, Unit: w.Unit, Metric: w.Metric,
			Candidate: s.Values[wi][0], Reference: s.Values[wi][1],
			Ratio: s.Ratio(wi, 0, 1), EnergyRatio: s.EnergyRatio(wi, 0, 1),
		}
	}
	return out, nil
}
