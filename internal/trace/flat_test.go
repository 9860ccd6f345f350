package trace

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"

	"montblanc/internal/power"
)

// The reference for the rank-major trace: the flat trace it replaced,
// with the assembly and the consumers exactly as they were. A flat
// trace is every rank's intervals in one slice, each carrying its rank;
// the simulator appended a collective's interval when its body
// returned, concatenated the ranks' lists in rank order and
// stable-sorted the result by (start, rank), and the comm log by Sent.

// flatInterval is an interval of the flat trace.
type flatInterval struct {
	Rank int
	Interval
}

// flatTrace is a complete recording in the flat form.
type flatTrace struct {
	Ranks     int
	Intervals []flatInterval
	Comms     []Comm
}

// assembleFlat is the former simmpi assembly: each rank's intervals in
// the order they were recorded, in rank order, then the canonical
// stable sort.
func assembleFlat(recorded [][]Interval, comms []Comm) *flatTrace {
	t := &flatTrace{Ranks: len(recorded), Comms: slices.Clone(comms)}
	for r, ivs := range recorded {
		for _, iv := range ivs {
			t.Intervals = append(t.Intervals, flatInterval{r, iv})
		}
	}
	slices.SortStableFunc(t.Intervals, func(a, b flatInterval) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	slices.SortStableFunc(t.Comms, func(a, b Comm) int { return cmp.Compare(a.Sent, b.Sent) })
	return t
}

func (t *flatTrace) Duration() float64 {
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

func (t *flatTrace) Collectives(prefix string) []Instance {
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

func analyzeFlat(t *flatTrace, prefix string) CongestionReport {
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

func (t *flatTrace) Gantt(width int) string {
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
		if iv.End < iv.Start || iv.End <= 0 || iv.Start >= total {
			continue
		}
		lo := int(iv.Start / total * float64(width))
		hi := int(iv.End / total * float64(width))
		if lo < 0 {
			lo = 0
		}
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
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

func (t *flatTrace) EnergyByState(prof power.Profile) EnergyBreakdown {
	b := EnergyBreakdown{
		Seconds:        t.Duration(),
		SecondsByState: map[power.State]float64{},
		ByState:        map[power.State]float64{},
		ByRank:         make([]float64, t.Ranks),
	}
	if b.Seconds <= 0 || t.Ranks <= 0 {
		return b
	}
	perRank := make([][]Interval, t.Ranks)
	for _, iv := range t.Intervals {
		if iv.Rank < 0 || iv.Rank >= t.Ranks || iv.End < iv.Start {
			continue
		}
		if iv.Kind.PowerState() == power.StateIdle {
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
		perRank[iv.Rank] = append(perRank[iv.Rank], iv.Interval)
	}
	for rank := 0; rank < t.Ranks; rank++ {
		integrateFlatRank(&b, perRank[rank], rank, prof)
	}
	return b
}

func integrateFlatRank(b *EnergyBreakdown, ivs []Interval, rank int, prof power.Profile) {
	events := make([]event, 0, 2*len(ivs))
	for i, iv := range ivs {
		events = append(events, event{iv.Start, i, true}, event{iv.End, i, false})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	var active indexHeap
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
	charge(b.Seconds)
}
