// Package trace records and analyzes execution traces of simulated MPI
// runs, standing in for the Extrae/Paraver toolchain the paper uses
// ([12], [13]). It stores per-rank state intervals and point-to-point
// communication records, renders ASCII Gantt charts reminiscent of
// Paraver timelines, and implements the Figure 4 analysis: finding
// all_to_all_v instances delayed by switch-dropped messages and
// classifying whether all ranks or only part of them were hit.
//
// # Rank-major order
//
// ByRank[r] is rank r's own interval list, one Paraver row; no flat
// list of every rank's intervals exists. The simulator (internal/simmpi)
// records into the trace in place and keeps two invariants:
//
//   - Each rank's list is in start order. A send, recv, compute or
//     memory interval is appended when it ends, and nothing else is
//     recorded for its rank meanwhile. A collective takes its slot when
//     it begins, before anything its body records, and gets its End
//     and Dropped when the body returns.
//   - Comms is the log in commit order. Commits go in (ready, rank)
//     order with ready times that never decrease, and a send's ready
//     time is its Sent, so the log is sorted by Sent.
//
// The flat trace this replaced appended a collective when its body
// returned, concatenated the ranks' lists and stable-sorted them by
// (start, rank), and Comms by Sent. Every consumer gives exactly what
// it gave on that order, for finite times: the sorts moved no
// non-collective interval within its rank and no comm, so only where a
// collective sits among same-start intervals of its rank differs.
// Gantt and EnergyByState paint a collective over everything wherever
// it sits, and their first-writer rule compares only the other
// intervals. Collectives orders each instance's intervals by (start,
// rank), the flat order (a rank has at most one interval per instance,
// since it numbers its own calls), so Durations and the sums of
// AnalyzeCongestion are bit for bit the same.
package trace

import (
	"cmp"
	"fmt"
	"slices"
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

// Interval is one state of one rank over [Start, End). Its rank is the
// list it is in (Trace.ByRank).
type Interval struct {
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

// Trace is a complete recording of one run: ByRank[r] holds rank r's
// intervals, and Comms the messages in commit order (see the package
// doc for the order invariants).
type Trace struct {
	ByRank [][]Interval
	Comms  []Comm
}

// New returns an empty trace over the given number of ranks.
func New(ranks int) *Trace { return &Trace{ByRank: make([][]Interval, ranks)} }

// Duration returns the end time of the last interval or comm.
func (t *Trace) Duration() float64 {
	end := 0.0
	for _, ivs := range t.ByRank {
		for _, iv := range ivs {
			if iv.End > end {
				end = iv.End
			}
		}
	}
	for _, c := range t.Comms {
		if c.Arrived > end {
			end = c.Arrived
		}
	}
	return end
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
// by instance name, ordered by start time. Each instance lists its
// Durations in (start, rank) order.
func (t *Trace) Collectives(prefix string) []Instance {
	var ivs []Interval // stable by start over rank order: (start, rank)
	for _, list := range t.ByRank {
		for _, iv := range list {
			if iv.Kind == StateCollective && strings.HasPrefix(iv.Name, prefix) {
				ivs = append(ivs, iv)
			}
		}
	}
	slices.SortStableFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	byName := map[string]*Instance{}
	for _, iv := range ivs {
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
	slices.SortFunc(out, func(a, b Instance) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
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
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %.4fs\n", total)
	row := make([]rune, width)
	for r, ivs := range t.ByRank {
		for c := range row {
			row[c] = ' '
		}
		for _, iv := range ivs {
			// An inverted interval, or one lying wholly outside [0,
			// makespan], carries no drawable time — skip it, exactly as
			// EnergyByState drops it from the accounting.
			if iv.End < iv.Start || iv.End <= 0 || iv.Start >= total {
				continue
			}
			// Clamp both bucket indexes to [0, width-1]: a negative Start
			// must not index before the row, nor an End at the makespan
			// past it.
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
				if iv.Kind == StateCollective || row[c] == ' ' {
					row[c] = iv.Kind.glyph()
				}
			}
		}
		fmt.Fprintf(&b, "rank %3d |%s|\n", r, string(row))
	}
	return b.String()
}
