// Package osmodel models the operating-system effects the paper singles
// out in §V.A: the physical-page allocation policy (V.A.1) and the
// scheduler (V.A.2). Its centerpiece is the real-time scheduler model
// reproducing Figure 5: under SCHED_FIFO on the ARM board, measurements
// fall into two modes — a normal one and a ~5x degraded one — and the
// degraded measurements are *consecutive in time*, pointing at "plainly
// wrong OS scheduling decisions during that period". membench.Sweep
// runs its measurements under that model.
package osmodel

import (
	"fmt"

	"montblanc/internal/mem"
	"montblanc/internal/xrand"
)

// PagePolicy selects how the OS hands out physical pages.
type PagePolicy int

// Page allocation policies.
const (
	// ContiguousPages models the lucky case: consecutive physical pages,
	// balanced page colours, reproducible performance.
	ContiguousPages PagePolicy = iota
	// RandomPages models the ARM behaviour observed in the paper:
	// nonconsecutive physical pages that may oversubscribe a page colour
	// of the physically-indexed L1.
	RandomPages
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case ContiguousPages:
		return "contiguous"
	case RandomPages:
		return "random"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// NewMapper builds a page mapper implementing the policy. The seed
// models the boot/process state: within one "run" the OS reuses the same
// pages (malloc/free returns the same memory), so a single mapper should
// be reused for all measurements of a run; a new run gets a new seed.
func (p PagePolicy) NewMapper(seed uint64) mem.Mapper {
	switch p {
	case RandomPages:
		return mem.NewRandomMapper(seed, 1<<16)
	default:
		return mem.NewContiguousMapper(0)
	}
}

// RTScheduler models SCHED_FIFO on the ARM board. It is a two-state
// Markov chain: in the normal state a measurement sees only small
// multiplicative noise (relative sigma Noise); with probability
// EnterProb per measurement the scheduler
// enters a degraded window where throughput drops by DegradeFactor, and
// it leaves the window with probability ExitProb per measurement. The
// sticky window is what makes all degraded measurements consecutive in
// sequence order (Figure 5b).
type RTScheduler struct {
	EnterProb     float64
	ExitProb      float64
	DegradeFactor float64
	Noise         float64

	rng      *xrand.Rand
	degraded bool
}

// NewRTScheduler returns the Figure 5 real-time scheduler model with the
// calibrated defaults: rare entry, sticky stay, ~5x degradation.
func NewRTScheduler(seed uint64) *RTScheduler {
	return &RTScheduler{
		EnterProb:     0.0008,
		ExitProb:      0.004,
		DegradeFactor: 5.0,
		Noise:         0.01,
		rng:           xrand.New(seed),
	}
}

// Degraded reports whether the scheduler is currently in the degraded
// window (after the last Next call).
func (s *RTScheduler) Degraded() bool { return s.degraded }

// Next returns the slowdown factor (>= 1) of the next measurement in
// wall-clock order.
func (s *RTScheduler) Next() float64 {
	if s.degraded {
		if s.rng.Float64() < s.ExitProb {
			s.degraded = false
		}
	} else if s.rng.Float64() < s.EnterProb {
		s.degraded = true
	}
	f := 1 + s.Noise*s.rng.NormFloat64()
	if f < 1 {
		// Noise can only slow a measurement down relative to the ideal.
		f = 2 - f
	}
	if s.degraded {
		f *= s.DegradeFactor
	}
	return f
}
