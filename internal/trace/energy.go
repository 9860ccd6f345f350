package trace

import (
	"container/heap"
	"sort"

	"montblanc/internal/power"
)

// PowerState maps an interval kind onto the power-accounting state it
// draws: compute and memory phases map one-to-one, every communication
// flavour (send, recv, collective) draws communication power, and
// anything else is idle.
func (k Kind) PowerState() power.State {
	switch k {
	case StateCompute:
		return power.StateCompute
	case StateMemory:
		return power.StateMemory
	case StateSend, StateRecv, StateCollective:
		return power.StateComm
	default:
		return power.StateIdle
	}
}

// EnergyBreakdown is the result of integrating a power profile over a
// trace: the Extrae-style state timeline turned into a power trace.
type EnergyBreakdown struct {
	// Seconds is the integration horizon per rank — the trace makespan.
	Seconds float64
	// SecondsByState accumulates rank-seconds spent in each accounting
	// state across all ranks (gaps between intervals count as idle).
	SecondsByState map[power.State]float64
	// ByState is the energy in joules drawn in each accounting state,
	// summed over all ranks.
	ByState map[power.State]float64
	// ByRank is the energy in joules drawn by each rank over the whole
	// horizon.
	ByRank []float64
	// Total is the whole-trace energy in joules: the sum of ByState.
	Total float64
}

// Joules returns the energy drawn in the given state.
func (b EnergyBreakdown) Joules(s power.State) float64 { return b.ByState[s] }

// EnergyByState integrates prof over the trace's per-rank state
// intervals, producing joules per rank and per accounting state. Every
// rank is charged from time 0 to the trace makespan: instants covered
// by an interval draw that state's watts, gaps draw idle watts.
// Overlapping intervals resolve exactly like the Gantt rendering —
// collectives paint over everything, explicitly idle intervals are
// transparent (they paint the blank glyph, so anything else shows
// through), otherwise the interval first in the rank's list wins — so
// the energy accounting and the timeline picture always agree.
// Malformed intervals are clamped to [0, makespan] and inverted ones
// ignored. prof is charged per rank.
func (t *Trace) EnergyByState(prof power.Profile) EnergyBreakdown {
	b := EnergyBreakdown{
		Seconds:        t.Duration(),
		SecondsByState: map[power.State]float64{},
		ByState:        map[power.State]float64{},
		ByRank:         make([]float64, len(t.ByRank)),
	}
	if b.Seconds <= 0 {
		return b
	}
	for rank, ivs := range t.ByRank {
		integrateRank(&b, ivs, rank, prof)
	}
	return b
}

// event is one interval boundary of a rank's sweep line.
type event struct {
	t    float64
	idx  int // index into the rank's interval list
	open bool
}

// integrateRank charges one rank from 0 to the horizon with a single
// sweep over its interval boundaries — O(N log N) in the rank's
// interval count, not a rescan of every interval per segment. It reads
// the rank's list in place, clamping and filtering as it builds the
// events. An active-set min-heap of list indices implements the
// first-writer rule; a counter implements collectives-paint-over-
// everything.
func integrateRank(b *EnergyBreakdown, ivs []Interval, rank int, prof power.Profile) {
	events := make([]event, 0, 2*len(ivs))
	for i, iv := range ivs {
		// Idle-drawing kinds are transparent, exactly as in Gantt: they
		// paint the blank glyph, so they neither hide other intervals
		// nor change what a gap would be charged anyway.
		if iv.End < iv.Start || iv.Kind.PowerState() == power.StateIdle {
			continue
		}
		if iv.Start < 0 {
			iv.Start = 0
		}
		if iv.End > b.Seconds {
			iv.End = b.Seconds
		}
		if iv.End <= iv.Start {
			continue
		}
		events = append(events, event{iv.Start, i, true}, event{iv.End, i, false})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	var active indexHeap // open non-collective intervals, lazily pruned
	closed := make([]bool, len(ivs))
	collectives := 0
	cursor := 0.0
	charge := func(to float64) {
		if to <= cursor {
			return
		}
		state := power.StateIdle
		if collectives > 0 {
			state = StateCollective.PowerState()
		} else {
			for active.Len() > 0 && closed[active[0]] {
				heap.Pop(&active)
			}
			if active.Len() > 0 {
				state = ivs[active[0]].Kind.PowerState()
			}
		}
		dt := to - cursor
		joules := prof.Watts(state) * dt
		b.SecondsByState[state] += dt
		b.ByState[state] += joules
		b.ByRank[rank] += joules
		b.Total += joules
		cursor = to
	}
	for ei := 0; ei < len(events); {
		now := events[ei].t
		charge(now)
		for ; ei < len(events) && events[ei].t == now; ei++ {
			ev := events[ei]
			switch {
			case ivs[ev.idx].Kind == StateCollective:
				if ev.open {
					collectives++
				} else {
					collectives--
				}
			case ev.open:
				heap.Push(&active, ev.idx)
			default:
				closed[ev.idx] = true
			}
		}
	}
	charge(b.Seconds) // trailing idle after the rank's last interval
}

// indexHeap is a min-heap of interval indices: the top is the open
// interval first in the rank's list.
type indexHeap []int

func (h indexHeap) Len() int            { return len(h) }
func (h indexHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h indexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *indexHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *indexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
