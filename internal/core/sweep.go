package core

import (
	"errors"
	"fmt"
	"strings"

	"montblanc/internal/platform"
	"montblanc/internal/power"
)

// Sweep is the cross-platform measurement matrix: every workload
// evaluated on every platform. It generalizes Table II (one candidate
// against one reference) to the N-machine comparisons of the follow-on
// Arm generation studies.
type Sweep struct {
	Platforms []*platform.Platform
	Workloads []Workload
	// Values[wi][pi] is workload wi measured on platform pi, in the
	// workload's unit.
	Values [][]float64
}

// RunSweep measures every workload on every platform, row by row.
func RunSweep(ps []*platform.Platform, ws []Workload) (*Sweep, error) {
	if len(ps) == 0 {
		return nil, errors.New("core: sweep needs at least one platform")
	}
	if len(ws) == 0 {
		return nil, errors.New("core: sweep needs at least one workload")
	}
	values := make([][]float64, len(ws))
	for wi, w := range ws {
		values[wi] = make([]float64, len(ps))
		for pi, p := range ps {
			v, err := w.Measure(p)
			if err != nil {
				return nil, fmt.Errorf("core: sweep %s/%s: %w", w.Name, p.Name, err)
			}
			if v <= 0 {
				return nil, fmt.Errorf("core: sweep %s/%s: non-positive measurement %g", w.Name, p.Name, v)
			}
			values[wi][pi] = v
		}
	}
	return &Sweep{Platforms: ps, Workloads: ws, Values: values}, nil
}

// ErrNoReference is returned by RefIndex when the named platform is not
// part of the sweep.
var ErrNoReference = errors.New("core: reference platform not in sweep")

// RefIndex returns the index of the named reference platform — the
// anchor of every ratio column, the Table II convention generalized:
// ratios read "how far ahead is the reference". A name absent from the
// sweep is an error wrapping ErrNoReference: the historical fallback to
// index 0 made a typo'd platform set produce plausible-looking but
// wrong ratios against an arbitrary machine.
func (s *Sweep) RefIndex(name string) (int, error) {
	for i, p := range s.Platforms {
		if p.Name == name {
			return i, nil
		}
	}
	names := make([]string, len(s.Platforms))
	for i, p := range s.Platforms {
		names[i] = p.Name
	}
	return 0, fmt.Errorf("%w: %q (swept platforms: %s)",
		ErrNoReference, name, strings.Join(names, ", "))
}

// Ratio returns the reference platform's advantage on workload wi over
// platform pi: reference/candidate for rates, candidate/reference for
// times — >= 1 when the reference is faster, matching Table II.
func (s *Sweep) Ratio(wi, pi, ref int) float64 {
	c, r := s.Values[wi][pi], s.Values[wi][ref]
	if s.Workloads[wi].Metric == Rate {
		return r / c
	}
	return c / r
}

// EnergyRatio returns candidate energy over reference energy for the
// same work on workload wi — below 1 means platform pi needs less
// energy than the reference, the paper's "Energy Ratio" column.
func (s *Sweep) EnergyRatio(wi, pi, ref int) float64 {
	cand, refP := s.Platforms[pi], s.Platforms[ref]
	cv, rv := s.Values[wi][pi], s.Values[wi][ref]
	if s.Workloads[wi].Metric == Rate {
		return power.EnergyRatioByRate(cand.Power, cv, refP.Power, rv)
	}
	return power.EnergyRatioByTime(cand.Power, cv, refP.Power, rv)
}

// Energy returns the energy-to-solution figure of cell (wi, pi):
// joules per unit of work for rate workloads, joules for the whole
// instance for time workloads.
func (s *Sweep) Energy(wi, pi int) float64 {
	p := s.Platforms[pi]
	v := s.Values[wi][pi]
	if s.Workloads[wi].Metric == Rate {
		return p.Power.EnergyPerOp(v)
	}
	return p.Power.Energy(v)
}

// PairWins counts, for every ordered platform pair, the workloads on
// which the row platform needs strictly less energy to solution than
// the column platform. wins[i][i] is 0 by construction.
func (s *Sweep) PairWins() [][]int {
	n := len(s.Platforms)
	wins := make([][]int, n)
	for i := range wins {
		wins[i] = make([]int, n)
		for j := range wins[i] {
			if i == j {
				continue
			}
			for wi := range s.Workloads {
				if s.Energy(wi, i) < s.Energy(wi, j) {
					wins[i][j]++
				}
			}
		}
	}
	return wins
}
