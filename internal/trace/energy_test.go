package trace

import (
	"math"
	"sort"
	"strings"
	"testing"

	"montblanc/internal/power"
	"montblanc/internal/xrand"
)

var phased = power.Profile{Name: "node", Idle: 1, Compute: 10, Memory: 8, Comm: 4}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Hand-computed integral: two ranks, known phase layout.
//
//	rank 0: compute [0,2) @10W, send [2,3) @4W, idle gap [3,4) @1W
//	rank 1: memory  [0,1) @8W, collective [1,4) @4W
//
// makespan 4s. Energy: r0 = 20 + 4 + 1 = 25 J; r1 = 8 + 12 = 20 J.
func TestEnergyByStateHandComputed(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{
		{{Kind: StateCompute, Start: 0, End: 2}, {Kind: StateSend, Start: 2, End: 3}},
		{{Kind: StateMemory, Start: 0, End: 1}, {Kind: StateCollective, Name: "a2a#0", Start: 1, End: 4}},
	}}

	b := tr.EnergyByState(phased)
	if b.Seconds != 4 {
		t.Fatalf("Seconds = %v, want 4", b.Seconds)
	}
	if !almost(b.ByState[power.StateCompute], 20) {
		t.Errorf("compute J = %v, want 20", b.ByState[power.StateCompute])
	}
	if !almost(b.ByState[power.StateMemory], 8) {
		t.Errorf("memory J = %v, want 8", b.ByState[power.StateMemory])
	}
	// comm: send 1s + collective 3s at 4 W.
	if !almost(b.ByState[power.StateComm], 16) {
		t.Errorf("comm J = %v, want 16", b.ByState[power.StateComm])
	}
	// idle: rank 0's uncovered [3,4) at 1 W.
	if !almost(b.ByState[power.StateIdle], 1) {
		t.Errorf("idle J = %v, want 1", b.ByState[power.StateIdle])
	}
	if !almost(b.ByRank[0], 25) || !almost(b.ByRank[1], 20) {
		t.Errorf("ByRank = %v, want [25 20]", b.ByRank)
	}
	if !almost(b.Total, 45) {
		t.Errorf("Total = %v, want 45", b.Total)
	}
	if !almost(b.SecondsByState[power.StateComm], 4) {
		t.Errorf("comm rank-seconds = %v, want 4", b.SecondsByState[power.StateComm])
	}
}

// A uniform profile must reduce the breakdown exactly to the paper's
// constant model: ranks x makespan x envelope, whatever the phase mix.
func TestEnergyByStateUniformReducesToConstantModel(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{
		{{Kind: StateCompute, Start: 0, End: 1.5}},
		{{Kind: StateRecv, Start: 0.25, End: 2}},
		{{Kind: StateCollective, Start: 1, End: 1.75}},
	}}

	u := power.Uniform("board", 2.5)
	b := tr.EnergyByState(u)
	want := u.Energy(tr.Duration()) * 3
	if !almost(b.Total, want) {
		t.Errorf("uniform Total = %v, want ranks x envelope x makespan = %v", b.Total, want)
	}
	for r, j := range b.ByRank {
		if !almost(j, u.Energy(tr.Duration())) {
			t.Errorf("rank %d = %v J, want %v", r, j, u.Energy(tr.Duration()))
		}
	}
}

// Collectives paint over inner send/recv intervals (the simmpi shape:
// a collective interval wraps the point-to-points it is built from), so
// the whole span draws communication power once, not twice.
func TestEnergyByStateCollectivePaintsOver(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{{
		{Kind: StateCollective, Name: "a2a#0", Start: 0, End: 2},
		{Kind: StateSend, Start: 0.5, End: 1},
		{Kind: StateRecv, Start: 1, End: 1.5},
	}}}

	b := tr.EnergyByState(phased)
	if !almost(b.ByState[power.StateComm], 8) {
		t.Errorf("comm J = %v, want 2s x 4W = 8", b.ByState[power.StateComm])
	}
	if !almost(b.Total, 8) {
		t.Errorf("Total = %v, want 8 (no double counting)", b.Total)
	}
}

// Malformed intervals are clamped to the horizon, inverted ones
// dropped.
func TestEnergyByStateMalformedIntervals(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{{
		{Kind: StateCompute, Start: -5, End: 1},
		{Kind: StateSend, Start: 2, End: 1}, // inverted
	}}}
	b := tr.EnergyByState(phased)
	// Horizon is 1s: compute [0,1) at 10 W.
	if !almost(b.Total, 10) {
		t.Errorf("Total = %v, want 10", b.Total)
	}
}

func TestEnergyByStateEmptyTrace(t *testing.T) {
	b := New(4).EnergyByState(phased)
	if b.Total != 0 || b.Seconds != 0 {
		t.Errorf("empty trace breakdown = %+v", b)
	}
}

func TestKindPowerState(t *testing.T) {
	want := map[Kind]power.State{
		StateCompute:    power.StateCompute,
		StateMemory:     power.StateMemory,
		StateSend:       power.StateComm,
		StateRecv:       power.StateComm,
		StateCollective: power.StateComm,
		StateIdle:       power.StateIdle,
		Kind(42):        power.StateIdle,
	}
	for k, s := range want {
		if got := k.PowerState(); got != s {
			t.Errorf("%s.PowerState() = %s, want %s", k, got, s)
		}
	}
	if StateMemory.String() != "memory" {
		t.Errorf("StateMemory.String() = %q", StateMemory)
	}
}

// Regression: an interval with a negative Start used to compute a
// negative bucket index and panic; an interval ending at the makespan
// could do the same on the high side. Both ends clamp now.
func TestGanttClampsMalformedIntervals(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{
		{{Kind: StateSend, Start: -0.5, End: 0.25}, {Kind: StateCompute, Start: 0, End: 1}},
		{
			{Kind: StateRecv, Start: -3, End: -1},
			{Kind: StateCollective, Start: 0.5, End: 2},
			{Kind: StateCompute, Start: 5, End: 1}, // inverted
		},
	}}
	g := tr.Gantt(10)
	if g == "" {
		t.Fatal("no Gantt output")
	}
	if lines := strings.Count(g, "\n"); lines != 3 {
		t.Errorf("Gantt rendered %d lines, want 3", lines)
	}
	// The wholly-negative recv carries no drawable time: it must not
	// paint (EnergyByState drops it too, so picture and accounting
	// agree); the partially-negative send clamps into the first bucket.
	if strings.Contains(g, "<") {
		t.Errorf("out-of-horizon interval painted:\n%s", g)
	}
	if !strings.Contains(g, "|>") {
		t.Errorf("clamped interval missing from first bucket:\n%s", g)
	}
}

// The sweep-line integration must agree with a brute-force
// covering-scan over elementary segments on arbitrary overlapping
// traces — same states, same joules.
func TestEnergyByStateMatchesBruteForce(t *testing.T) {
	kinds := []Kind{StateCompute, StateSend, StateRecv, StateCollective, StateIdle, StateMemory}
	for seed := uint64(1); seed <= 25; seed++ {
		rng := xrand.New(seed)
		tr := New(3)
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			start := rng.Float64() * 10
			r := rng.Intn(3)
			tr.ByRank[r] = append(tr.ByRank[r], Interval{
				Kind:  kinds[rng.Intn(len(kinds))],
				Start: start,
				End:   start + rng.Float64()*3,
			})
		}
		got := tr.EnergyByState(phased)
		want := bruteForceEnergy(tr, phased)
		for _, st := range power.States() {
			if !almost(got.ByState[st], want[st]) {
				t.Fatalf("seed %d: %s = %v, want brute-force %v", seed, st, got.ByState[st], want[st])
			}
		}
	}
}

// bruteForceEnergy is the O(N^2) reference: for every elementary
// segment of every rank, scan all intervals for the covering winner
// (collective beats all, then first recorded).
func bruteForceEnergy(t *Trace, prof power.Profile) map[power.State]float64 {
	total := t.Duration()
	out := map[power.State]float64{}
	for _, list := range t.ByRank {
		var ivs []Interval
		for _, iv := range list {
			if iv.End < iv.Start {
				continue
			}
			if iv.Start < 0 {
				iv.Start = 0
			}
			if iv.End > total {
				iv.End = total
			}
			if iv.End > iv.Start {
				ivs = append(ivs, iv)
			}
		}
		// Idle-drawing kinds are transparent, as in the Gantt rendering.
		kept := ivs[:0]
		for _, iv := range ivs {
			if iv.Kind.PowerState() != power.StateIdle {
				kept = append(kept, iv)
			}
		}
		ivs = kept
		cuts := []float64{0, total}
		for _, iv := range ivs {
			cuts = append(cuts, iv.Start, iv.End)
		}
		sort.Float64s(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			a, z := cuts[i], cuts[i+1]
			if z <= a {
				continue
			}
			state := power.StateIdle
			chosen := false
			for _, iv := range ivs {
				if iv.Start > a || iv.End < z {
					continue
				}
				if iv.Kind == StateCollective {
					state = power.StateComm
					chosen = true
					break
				}
				if !chosen {
					state = iv.Kind.PowerState()
					chosen = true
				}
			}
			out[state] += prof.Watts(state) * (z - a)
		}
	}
	return out
}

// An explicitly recorded idle interval is transparent, exactly like
// its blank Gantt glyph: a compute interval recorded later still shows
// through in the chart AND gets the joules — picture and accounting
// agree.
func TestEnergyByStateIdleIntervalsTransparent(t *testing.T) {
	tr := &Trace{ByRank: [][]Interval{{
		{Kind: StateIdle, Start: 0, End: 10},
		{Kind: StateCompute, Start: 0, End: 10},
	}}}
	b := tr.EnergyByState(phased)
	if !almost(b.ByState[power.StateCompute], 100) || b.ByState[power.StateIdle] != 0 {
		t.Errorf("ByState = %v, want 100 J compute, 0 J idle", b.ByState)
	}
	if g := tr.Gantt(10); !strings.Contains(g, "==========") {
		t.Errorf("Gantt disagrees with accounting:\n%s", g)
	}
}
