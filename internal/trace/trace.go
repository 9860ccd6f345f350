// Package trace records and analyzes execution traces of simulated MPI
// runs, standing in for the Extrae/Paraver toolchain the paper uses
// ([12], [13]). It stores per-rank state intervals and point-to-point
// communication records, renders ASCII Gantt charts reminiscent of
// Paraver timelines, and implements the Figure 4 analysis: finding
// all_to_all_v instances delayed by switch-dropped messages and
// classifying whether all ranks or only part of them were hit.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind classifies a state interval.
type Kind int

// Interval kinds. StateMemory extends the historical set for runs that
// distinguish memory-bound phases from compute; it is appended after
// the original kinds so their values stay put.
const (
	StateCompute Kind = iota
	StateSend
	StateRecv
	StateCollective
	StateIdle
	StateMemory
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case StateCompute:
		return "compute"
	case StateSend:
		return "send"
	case StateRecv:
		return "recv"
	case StateCollective:
		return "collective"
	case StateIdle:
		return "idle"
	case StateMemory:
		return "memory"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// rune used in Gantt rendering.
func (k Kind) glyph() rune {
	switch k {
	case StateCompute:
		return '='
	case StateSend:
		return '>'
	case StateRecv:
		return '<'
	case StateCollective:
		return 'A'
	case StateMemory:
		return 'm'
	default:
		return ' '
	}
}

// Interval is one state of one rank over [Start, End).
type Interval struct {
	Rank  int
	Kind  Kind
	Name  string // e.g. "alltoallv#3"
	Start float64
	End   float64
	// Dropped counts messages received inside this interval that
	// suffered a buffer overrun (collective intervals only).
	Dropped int
}

// Duration returns End - Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Comm is one point-to-point message.
type Comm struct {
	Src, Dst, Tag, Bytes int
	Sent, Arrived        float64
	Dropped              bool // suffered a buffer overrun somewhere
}

// Trace is a complete recording of one run.
type Trace struct {
	Ranks     int
	Intervals []Interval
	Comms     []Comm
}

// New returns an empty trace over the given number of ranks.
func New(ranks int) *Trace { return &Trace{Ranks: ranks} }

// AddInterval appends a state interval.
func (t *Trace) AddInterval(iv Interval) { t.Intervals = append(t.Intervals, iv) }

// Reserve grows the interval and comm buffers to at least the given
// total capacities, so recorders that know their event counts up front
// (simmpi sizes them from its config) avoid append regrowth. It never
// shrinks and never changes contents.
func (t *Trace) Reserve(intervals, comms int) {
	if n := len(t.Intervals); intervals > cap(t.Intervals) {
		grown := make([]Interval, n, intervals)
		copy(grown, t.Intervals)
		t.Intervals = grown
	}
	if n := len(t.Comms); comms > cap(t.Comms) {
		grown := make([]Comm, n, comms)
		copy(grown, t.Comms)
		t.Comms = grown
	}
}

// Duration returns the end time of the last interval or comm.
func (t *Trace) Duration() float64 {
	end := 0.0
	for _, iv := range t.Intervals {
		if iv.End > end {
			end = iv.End
		}
	}
	for _, c := range t.Comms {
		if c.Arrived > end {
			end = c.Arrived
		}
	}
	return end
}

// Merge appends the contents of other into t (used to combine per-rank
// buffers after a run).
func (t *Trace) Merge(other *Trace) {
	t.Intervals = append(t.Intervals, other.Intervals...)
	t.Comms = append(t.Comms, other.Comms...)
}

// Sort orders intervals by (start, rank) and comms by send time, making
// traces deterministic regardless of collection order. Both sorts are
// stable and generic: no reflection moves the elements.
func (t *Trace) Sort() {
	slices.SortStableFunc(t.Intervals, func(a, b Interval) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	slices.SortStableFunc(t.Comms, func(a, b Comm) int { return cmp.Compare(a.Sent, b.Sent) })
}

// Instance aggregates one collective instance across ranks.
type Instance struct {
	Name      string
	Start     float64 // earliest rank entry
	End       float64 // latest rank exit
	Durations []float64
	Ranks     int
	// DroppedRanks counts member ranks whose intervals saw at least one
	// retransmitted message; DroppedComms totals those messages.
	DroppedRanks int
	DroppedComms int
}

// Collectives groups collective intervals whose name starts with prefix
// by instance name, ordered by start time.
func (t *Trace) Collectives(prefix string) []Instance {
	byName := map[string]*Instance{}
	for _, iv := range t.Intervals {
		if iv.Kind != StateCollective || !strings.HasPrefix(iv.Name, prefix) {
			continue
		}
		in, ok := byName[iv.Name]
		if !ok {
			in = &Instance{Name: iv.Name, Start: iv.Start, End: iv.End}
			byName[iv.Name] = in
		}
		if iv.Start < in.Start {
			in.Start = iv.Start
		}
		if iv.End > in.End {
			in.End = iv.End
		}
		in.Durations = append(in.Durations, iv.Duration())
		in.Ranks++
		if iv.Dropped > 0 {
			in.DroppedRanks++
			in.DroppedComms += iv.Dropped
		}
	}
	out := make([]Instance, 0, len(byName))
	for _, in := range byName {
		out = append(out, *in)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CongestionReport is the retransmission-based Figure 4 analysis: which
// collective instances contain switch-dropped messages, and whether all
// ranks or only part of them were hit.
type CongestionReport struct {
	Collective       string
	Instances        int
	Delayed          int // instances containing >= 1 retransmission
	FullyDelayed     int // >= 80% of ranks hit
	PartiallyDelayed int
	TotalDrops       int
	// MeanCleanDuration / MeanDelayedDuration compare the per-rank time
	// spent in clean vs congested instances.
	MeanCleanDuration   float64
	MeanDelayedDuration float64
}

// AnalyzeCongestion classifies collective instances by the
// retransmissions they contain — the ground truth behind the "delayed
// communications" circled in Figure 4.
func AnalyzeCongestion(t *Trace, prefix string) CongestionReport {
	rep := CongestionReport{Collective: prefix}
	var cleanSum, delayedSum float64
	var cleanN, delayedN int
	for _, in := range t.Collectives(prefix) {
		rep.Instances++
		if in.DroppedRanks == 0 {
			for _, d := range in.Durations {
				cleanSum += d
				cleanN++
			}
			continue
		}
		rep.Delayed++
		rep.TotalDrops += in.DroppedComms
		if float64(in.DroppedRanks) >= 0.8*float64(in.Ranks) {
			rep.FullyDelayed++
		} else {
			rep.PartiallyDelayed++
		}
		for _, d := range in.Durations {
			delayedSum += d
			delayedN++
		}
	}
	if cleanN > 0 {
		rep.MeanCleanDuration = cleanSum / float64(cleanN)
	}
	if delayedN > 0 {
		rep.MeanDelayedDuration = delayedSum / float64(delayedN)
	}
	return rep
}

// Gantt renders the trace as an ASCII timeline, one row per rank,
// sampling the dominant state of each of width time buckets:
//
//	'=' compute   '>' send   '<' recv   'A' collective   'm' memory   ' ' idle
func (t *Trace) Gantt(width int) string {
	if width <= 0 {
		width = 80
	}
	total := t.Duration()
	if total <= 0 {
		return ""
	}
	rows := make([][]rune, t.Ranks)
	for r := range rows {
		rows[r] = []rune(strings.Repeat(" ", width))
	}
	for _, iv := range t.Intervals {
		if iv.Rank < 0 || iv.Rank >= t.Ranks {
			continue
		}
		// An inverted interval, or one lying wholly outside [0, makespan],
		// carries no drawable time — skip it, exactly as EnergyByState
		// drops it from the accounting.
		if iv.End < iv.Start || iv.End <= 0 || iv.Start >= total {
			continue
		}
		// Clamp both bucket indexes to [0, width-1]: a partially
		// out-of-range interval (negative Start, or an End beyond the
		// makespan after a bad Merge) must not index outside the row.
		lo := int(iv.Start / total * float64(width))
		hi := int(iv.End / total * float64(width))
		if lo < 0 {
			lo = 0
		}
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			// Collectives paint over everything; otherwise first writer
			// wins within a bucket.
			if iv.Kind == StateCollective || rows[iv.Rank][c] == ' ' {
				rows[iv.Rank][c] = iv.Kind.glyph()
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %.4fs\n", total)
	for r, row := range rows {
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, string(row))
	}
	return b.String()
}
