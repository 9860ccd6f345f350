package cache

import (
	"fmt"
	"testing"

	"montblanc/internal/mem"
	"montblanc/internal/xrand"
)

// passTwins runs one load pass through AccessPass on h and through
// AccessRun on twin, and fails unless both give the same RunResult,
// counters and AppendState.
func passTwins(t *testing.T, h, twin *Hierarchy, s segment, ctx string) {
	t.Helper()
	var next Replay
	got, _ := h.AccessPass(s.va, s.stride, s.count, &next)
	if want := twin.AccessRun(s.va, s.stride, s.count, false); got != want {
		t.Fatalf("%s: AccessPass %+v, AccessRun %+v", ctx, got, want)
	}
	compareHierarchies(t, twin, h, ctx)
}

// tailGaps walks pass s on h line by line through Access and counts the
// lines that hit at some level above a level whose set had already
// missed its ways in the pass: gaps that fall inside a closed-form tail
// of the set-major route. h must translate identically.
func tailGaps(h *Hierarchy, s segment) int {
	misses := make([][]int, h.Depth()) // per level, per set, in the pass
	for i := range misses {
		c := h.levels[i]
		misses[i] = make([]int, c.setMask+1)
	}
	gaps := 0
	va, lastLine := s.va, ^uint64(0)
	for a := 0; a < s.count; a, va = a+1, va+uint64(s.stride) {
		before := make([]Stats, h.Depth())
		for i := range before {
			before[i] = h.Level(i).Stats()
		}
		h.Access(va, false)
		if line := va >> h.levels[0].lineShift; line == lastLine {
			continue // a same-line access, not a lookup of the set-major route
		} else {
			lastLine = line
		}
		for i := 0; i < h.Depth(); i++ {
			c := h.levels[i]
			set := (va >> c.lineShift) & c.setMask
			d := subStats(c.Stats(), before[i])
			if d.Misses > 0 {
				misses[i][set]++
			}
			if d.Hits > 0 {
				for j := i + 1; j < h.Depth(); j++ {
					lower := h.levels[j]
					if misses[j][(va>>lower.lineShift)&lower.setMask] >= lower.cfg.Associativity {
						gaps++
					}
				}
			}
		}
	}
	return gaps
}

// Upper-level hits leave gaps in the lookups of the levels below, and a
// gap can fall inside a lower set's closed-form tail: with a fully
// associative 8-way L1 warm with lines 1 to 4 over a direct-mapped
// 4-set L2, a pass over lines 0 to 15 misses line 0 in L2 set 0, which
// starts its tail, and then hits line 4 of that set in the L1. Over that
// case and random warm traffic on two- and three-level hierarchies of
// one line size, AccessPass on the set-major route gives the RunResult,
// counters and AppendState of AccessRun, and some gaps fall in tails.
func TestSetMajorSkipsUpperLevelHits(t *testing.T) {
	const line = 64
	level := func(n, sets, ways, lat int) Config {
		return Config{Name: fmt.Sprintf("L%d", n), Level: n, Size: sets * ways * line, LineSize: line, Associativity: ways, HitLatency: lat}
	}
	shapes := [][]Config{
		{level(1, 1, 8, 2), level(2, 4, 1, 9)},
		{level(1, 2, 4, 2), level(2, 8, 1, 9), level(3, 4, 4, 30)},
		{level(1, 1, 8, 2), level(2, 4, 2, 9), level(3, 16, 1, 30)},
		{level(1, 4, 2, 2), level(2, 2, 4, 9), level(3, 8, 2, 30)},
	}
	build := func(t *testing.T, levels []Config) *Hierarchy {
		h, err := NewHierarchy(levels, 120, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	gaps := 0
	// The constructed case.
	{
		h, twin, probe := build(t, shapes[0]), build(t, shapes[0]), build(t, shapes[0])
		for _, x := range []*Hierarchy{h, twin, probe} {
			x.AccessRun(1*line, line, 4, true)
		}
		pass := segment{va: 0, stride: line, count: 16}
		if n := tailGaps(probe, pass); n == 0 {
			t.Fatal("the constructed case has no gap inside an L2 tail")
		}
		passTwins(t, h, twin, pass, "constructed case")
	}
	rng := xrand.New(31)
	for trial := 0; trial < 1000; trial++ {
		levels := shapes[rng.Uint64()%uint64(len(shapes))]
		h, twin, probe := build(t, levels), build(t, levels), build(t, levels)
		pass := segment{
			va:     (rng.Uint64() % 16) * line,
			stride: []int{4, 32, line, line, 2 * line, 3 * line}[rng.Uint64()%6],
			count:  1 + int(rng.Uint64()%96),
		}
		// Warm lines a little ahead of the pass's start, some dirty.
		for i := rng.Uint64() % 4; i < 4; i++ {
			warm := segment{
				va:     pass.va + (rng.Uint64()%24)*line,
				stride: []int{8, line, 2 * line, 3 * line}[rng.Uint64()%4],
				count:  1 + int(rng.Uint64()%12),
				write:  rng.Uint64()%2 == 0,
			}
			for _, x := range []*Hierarchy{h, twin, probe} {
				x.AccessRun(warm.va, warm.stride, warm.count, warm.write)
			}
		}
		gaps += tailGaps(probe, pass)
		for p := 1; p <= 2; p++ {
			passTwins(t, h, twin, pass, fmt.Sprintf("trial %d (%d levels, pass %+v) pass %d", trial, len(levels), pass, p))
		}
	}
	t.Logf("%d upper-level hits fell inside a lower set's tail", gaps)
	if gaps < 20 {
		t.Fatalf("only %d gaps fell inside a tail; the suite tests too little", gaps)
	}
}

// freshCase is one pass on a fresh two-level hierarchy.
type freshCase struct {
	hc   hierCfg
	pass segment
}

// perSet returns the most and fewest lookups any set of level i gets
// from a pass on a fresh hierarchy, where every level looks up every
// line of the pass; sets with none are not counted.
func (fc freshCase) perSet(i int) (most, fewest int) {
	cfg := fc.hc.levels[i]
	sets := cfg.Size / cfg.LineSize / cfg.Associativity
	counts := make(map[uint64]int)
	lastLine := ^uint64(0)
	va := fc.pass.va
	base := uint64(0)
	if fc.hc.mapper == 1 {
		base = 1 << 20 // mem.NewContiguousMapper's base in hierCfg.build
	}
	for a := 0; a < fc.pass.count; a++ {
		if l := (base + va) / uint64(cfg.LineSize); l != lastLine {
			counts[l%uint64(sets)]++
			lastLine = l
		}
		va += uint64(fc.pass.stride)
	}
	fewest = fc.pass.count
	for _, n := range counts {
		most, fewest = max(most, n), min(fewest, n)
	}
	return most, fewest
}

// On a hierarchy with no lookup since NewHierarchy or Reset, the
// set-major route fills every set in closed form: k < ways, k = ways
// and k > ways lookups per set, at both levels, with a TLB over a
// contiguous mapping and without, give AccessRun's RunResult, counters
// and AppendState. A single Access after Reset, of a dirty line the
// pass looks up, must switch the closed form off, and so must an
// AccessRun.
func TestFreshFillClosedForm(t *testing.T) {
	levels := []Config{
		{Name: "L1", Level: 1, Size: 1024, LineSize: 64, Associativity: 4, HitLatency: 2},  // 4 sets
		{Name: "L2", Level: 2, Size: 4096, LineSize: 64, Associativity: 4, HitLatency: 11}, // 16 sets
	}
	var cases []freshCase
	for _, mapper := range []int{0, 1} {
		for _, lines := range []int{1, 3, 8, 16, 24, 64, 80, 100} {
			for _, stride := range []int{0, 16, 64, 128, 192} {
				count := lines
				if stride == 16 {
					count = 4 * lines
				}
				cases = append(cases, freshCase{
					hc:   hierCfg{levels: levels, memLatency: 90, tlbEntries: 4, tlbPenalty: 20, mapper: mapper},
					pass: segment{va: 3 * 64, stride: stride, count: count},
				})
			}
		}
	}
	var regimes [2][3]int // per level: sets with k < ways, k = ways, k > ways
	for i, fc := range cases {
		for l := range levels {
			most, fewest := fc.perSet(l)
			ways := levels[l].Associativity
			for _, k := range []int{most, fewest} {
				switch {
				case k < ways:
					regimes[l][0]++
				case k == ways:
					regimes[l][1]++
				default:
					regimes[l][2]++
				}
			}
		}
		ctx := fmt.Sprintf("case %d (%+v)", i, fc.pass)
		h, twin := fc.hc.build(t), fc.hc.build(t)
		passTwins(t, h, twin, fc.pass, ctx+" fresh")
		passTwins(t, h, twin, fc.pass, ctx+" second pass")

		h.Reset()
		twin.Reset()
		dirty := fc.pass.va + uint64(fc.pass.count-1)*uint64(fc.pass.stride)
		h.Access(dirty, true)
		twin.Access(dirty, true)
		passTwins(t, h, twin, fc.pass, ctx+" after Reset and one Access")

		h.Reset()
		twin.Reset()
		h.AccessRun(fc.pass.va, 64, 2, false)
		twin.AccessRun(fc.pass.va, 64, 2, false)
		passTwins(t, h, twin, fc.pass, ctx+" after Reset and an AccessRun")

		h.Reset()
		twin.Reset()
		passTwins(t, h, twin, fc.pass, ctx+" fresh after Reset")
	}
	t.Logf("sets with k < ways, k = ways, k > ways lookups: L1 %v, L2 %v", regimes[0], regimes[1])
	for l, r := range regimes {
		for j, n := range r {
			if n == 0 {
				t.Fatalf("level %d: no case has %s", l+1, []string{"k < ways", "k = ways", "k > ways"}[j])
			}
		}
	}
}

// Once warm, a set-major pass allocates nothing: the hits of the levels
// above and the tail's tags live in the hierarchy's scratch, sized by
// ways and upper-level capacity. Both a fresh pass after Reset and a
// pass over a warm hierarchy are guarded.
func TestSetMajorPassAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	h := hierCfg{
		levels: []Config{
			{Name: "L1", Level: 1, Size: 8192, LineSize: 64, Associativity: 4, HitLatency: 2},
			{Name: "L2", Level: 2, Size: 65536, LineSize: 64, Associativity: 8, HitLatency: 12},
			{Name: "L3", Level: 3, Size: 1 << 20, LineSize: 64, Associativity: 16, HitLatency: 30},
		},
		memLatency: 100,
		tlbEntries: 8, tlbPenalty: 25, mapper: 1,
	}.build(t)
	if _, ok := h.setMajor(0, 64, 1<<12); !ok {
		t.Fatal("the guarded passes do not take the set-major route")
	}
	var next Replay
	traffic := func() {
		h.AccessPass(0, 8, 1<<15, &next)
		h.AccessPass(1<<16, 64, 1<<12, &next)
		h.Reset()
		h.AccessPass(0, 64, 1<<13, &next)
		h.AccessPass(1<<12, 192, 1000, &next)
	}
	traffic() // allocate the set-major scratch
	if allocs := testing.AllocsPerRun(5, traffic); allocs != 0 {
		t.Errorf("warm set-major passes allocate %.1f per call set, want 0", allocs)
	}
}

// setMajorShape is the set-major route's predicate computed from a
// case's shape: at least one access, with no TLB or a TLB over the
// contiguous mapper, every level of the L1's line size, at most a page,
// a non-negative stride at most the line or a multiple of it, and a
// virtual range that does not wrap around the address space. No case's
// physical range, 1 MiB above the virtual one or equal to it, comes
// near wrapping.
func setMajorShape(sc steadyCase) bool {
	s, line := sc.pass, sc.hc.levels[0].LineSize
	if s.count <= 0 || s.stride < 0 || sc.alias || sc.hc.mapper > 1 || line > mem.PageSize || s.stride > line && s.stride%line != 0 {
		return false
	}
	if s.va+uint64(s.count-1)*uint64(s.stride) < s.va {
		return false
	}
	for _, l := range sc.hc.levels {
		if l.LineSize != line {
			return false
		}
	}
	return true
}
