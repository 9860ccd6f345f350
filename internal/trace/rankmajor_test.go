package trace

import (
	"cmp"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"montblanc/internal/power"
	"montblanc/internal/xrand"
)

// rankRecorder plays one rank of a random program and records it both
// ways: rankMajor as the simulator records now (a collective takes its
// slot when it begins), flat as it recorded for the flat trace (a
// collective appended when its body returns, after everything the body
// recorded).
type rankRecorder struct {
	rng       *xrand.Rand
	now       float64
	quantized bool // durations on a 0.25 s grid, so starts collide across ranks
	rankMajor []Interval
	flat      []Interval
	seq       map[string]int
}

var leafKinds = []Kind{StateCompute, StateSend, StateRecv, StateMemory, StateIdle}

// duration draws a leaf or gap length: zero a third of the time, so
// intervals share starts within a rank.
func (r *rankRecorder) duration() float64 {
	switch {
	case r.rng.Intn(3) == 0:
		return 0
	case r.quantized || r.rng.Intn(2) == 0:
		return float64(1+r.rng.Intn(4)) * 0.25
	default:
		return r.rng.Float64()
	}
}

// ops records n random operations, collectives nesting up to depth 3.
func (r *rankRecorder) ops(n, depth int) {
	for i := 0; i < n; i++ {
		if depth < 3 && r.rng.Intn(3) == 0 {
			r.collective(depth)
			continue
		}
		iv := Interval{Kind: leafKinds[r.rng.Intn(len(leafKinds))], Name: "leaf", Start: r.now}
		r.now += r.duration()
		iv.End = r.now
		r.rankMajor = append(r.rankMajor, iv)
		r.flat = append(r.flat, iv)
	}
}

// collective records a collective named as simmpi names them (each
// rank numbers its own calls of a name), with a random body.
func (r *rankRecorder) collective(depth int) {
	base := []string{"alltoallv", "allreduce"}[r.rng.Intn(2)]
	name := base + "#" + strconv.Itoa(r.seq[base])
	r.seq[base]++
	slot := len(r.rankMajor)
	r.rankMajor = append(r.rankMajor, Interval{Kind: StateCollective, Name: name, Start: r.now, End: r.now})
	start := r.now
	r.ops(r.rng.Intn(4), depth+1)
	iv := Interval{Kind: StateCollective, Name: name, Start: start, End: r.now, Dropped: r.rng.Intn(3) * r.rng.Intn(2)}
	r.rankMajor[slot].End, r.rankMajor[slot].Dropped = iv.End, iv.Dropped
	r.flat = append(r.flat, iv)
}

// randomTraces builds the rank-major trace of a random program and the
// per-rank lists in the flat trace's recorded order. Comms are drawn in
// commit order: Sent never decreases, with ties.
func randomTraces(seed uint64) (*Trace, [][]Interval) {
	rng := xrand.New(seed)
	ranks := 1 + rng.Intn(6)
	tr := New(ranks)
	recorded := make([][]Interval, ranks)
	for rank := range tr.ByRank {
		r := &rankRecorder{rng: rng, quantized: seed%2 == 0, seq: map[string]int{}}
		r.ops(rng.Intn(14), 0)
		tr.ByRank[rank], recorded[rank] = r.rankMajor, r.flat
	}
	sent := 0.0
	for i := rng.Intn(8); i > 0; i-- {
		sent += float64(rng.Intn(2)) * 0.25
		tr.Comms = append(tr.Comms, Comm{Src: rng.Intn(ranks), Dst: rng.Intn(ranks), Tag: i,
			Sent: sent, Arrived: sent + rng.Float64()*4})
	}
	return tr, recorded
}

// The byte-identity argument of the package doc, checked: on random
// programs with collectives out of place in the recorded order, nested
// collectives, and equal starts within and across ranks, every consumer
// of the rank-major trace gives exactly what it gave on the flat,
// stable-sorted trace.
func TestRankMajorMatchesFlatReference(t *testing.T) {
	profiles := []power.Profile{phased, power.Uniform("board", 2.5)}
	outOfPlace := 0
	for seed := uint64(1); seed <= 400; seed++ {
		tr, recorded := randomTraces(seed)
		ref := assembleFlat(recorded, tr.Comms)
		for rank, ivs := range tr.ByRank {
			if !slices.IsSortedFunc(ivs, byStart) {
				t.Fatalf("seed %d: rank %d list not in start order: %+v", seed, rank, ivs)
			}
			if !slices.IsSortedFunc(recorded[rank], byStart) {
				outOfPlace++
			}
		}
		if !reflect.DeepEqual(tr.Comms, ref.Comms) {
			t.Fatalf("seed %d: commit-order comms differ from the sorted log", seed)
		}
		if got, want := tr.Duration(), ref.Duration(); got != want {
			t.Fatalf("seed %d: Duration %v, want %v", seed, got, want)
		}
		for _, w := range []int{0, 7, 96} {
			if got, want := tr.Gantt(w), ref.Gantt(w); got != want {
				t.Fatalf("seed %d: Gantt(%d) =\n%s\nwant\n%s", seed, w, got, want)
			}
		}
		for _, prof := range profiles {
			if got, want := tr.EnergyByState(prof), ref.EnergyByState(prof); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: EnergyByState(%s) = %+v, want %+v", seed, prof.Name, got, want)
			}
		}
		for _, prefix := range []string{"alltoallv", "allreduce", ""} {
			// No instances compares equal whether nil or empty.
			if got, want := tr.Collectives(prefix), ref.Collectives(prefix); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Collectives(%q) =\n%+v\nwant\n%+v", seed, prefix, got, want)
			}
			if got, want := AnalyzeCongestion(tr, prefix), analyzeFlat(ref, prefix); got != want {
				t.Fatalf("seed %d: AnalyzeCongestion(%q) = %+v, want %+v", seed, prefix, got, want)
			}
		}
	}
	// The recorded order must actually put collectives out of place,
	// or the comparison proves nothing about moving them.
	if outOfPlace == 0 {
		t.Fatal("no rank recorded a collective out of start order")
	}
	t.Logf("%d rank lists recorded out of start order", outOfPlace)
}

func byStart(a, b Interval) int { return cmp.Compare(a.Start, b.Start) }
