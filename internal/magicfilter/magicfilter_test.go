package magicfilter

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"montblanc/internal/cache"
	"montblanc/internal/platform"
	"montblanc/internal/xrand"
)

const sweepN = 4096

// variant measures one variant on a hierarchy of its own.
func variant(p *platform.Platform, n, unroll int) (VariantResult, error) {
	h, err := p.NewHierarchy(nil)
	if err != nil {
		return VariantResult{}, err
	}
	return measureVariant(p, h, n, unroll)
}

// Figure 7's headline: the sweet spot is much narrower on Tegra2
// ([4:7]) than on Nehalem ([4:12]).
func TestFigure7SweetSpots(t *testing.T) {
	neh, err := SweepUnroll(platform.XeonX5550(), sweepN, 12)
	if err != nil {
		t.Fatal(err)
	}
	teg, err := SweepUnroll(platform.Tegra2Node(), sweepN, 12)
	if err != nil {
		t.Fatal(err)
	}
	nLo, nHi := SweetSpot(neh, 0.15)
	tLo, tHi := SweetSpot(teg, 0.15)
	if nHi != 12 {
		t.Errorf("Nehalem sweet spot [%d:%d], want upper edge 12", nLo, nHi)
	}
	if tHi < 6 || tHi > 8 {
		t.Errorf("Tegra2 sweet spot [%d:%d], want upper edge ~7", tLo, tHi)
	}
	if nWidth, tWidth := nHi-nLo, tHi-tLo; tWidth >= nWidth {
		t.Errorf("Tegra2 sweet spot (%d wide) not narrower than Nehalem's (%d wide)",
			tWidth+1, nWidth+1)
	}
	if lo, _ := SweetSpot(neh, 0.15); lo < 3 {
		t.Errorf("Nehalem sweet spot starts at %d, want >= 3", lo)
	}
}

// "on Tegra2, the total number of cycles significantly grows when
// unrolling too much (unroll=12)".
func TestFigure7Tegra2CyclesBlowUp(t *testing.T) {
	teg, err := SweepUnroll(platform.Tegra2Node(), sweepN, 12)
	if err != nil {
		t.Fatal(err)
	}
	min := math.Inf(1)
	for _, r := range teg {
		if r.CyclesPerPoint < min {
			min = r.CyclesPerPoint
		}
	}
	last := teg[len(teg)-1]
	if last.CyclesPerPoint < 1.2*min {
		t.Errorf("Tegra2 unroll=12 cycles %.1f not significantly above min %.1f",
			last.CyclesPerPoint, min)
	}
}

// "the number of cache accesses ... start growing very quickly
// (starting at unroll=4)" on Tegra2; on Nehalem the staircase appears
// only around unroll=9.
func TestFigure7CacheAccessGrowth(t *testing.T) {
	teg, err := SweepUnroll(platform.Tegra2Node(), sweepN, 12)
	if err != nil {
		t.Fatal(err)
	}
	accT := func(u int) float64 { return teg[u-1].AccessesPerPt }
	if accT(8) <= accT(4) {
		t.Error("Tegra2 accesses should grow past unroll=4")
	}
	if accT(12) <= accT(8) {
		t.Error("Tegra2 accesses should keep growing to unroll=12")
	}

	neh, err := SweepUnroll(platform.XeonX5550(), sweepN, 12)
	if err != nil {
		t.Fatal(err)
	}
	accN := func(u int) float64 { return neh[u-1].AccessesPerPt }
	// Before the staircase the curve still decreases...
	if accN(8) >= accN(4) {
		t.Error("Nehalem accesses should still decrease at unroll=8")
	}
	// ...and it turns upward only late.
	if accN(12) <= accN(9) {
		t.Error("Nehalem staircase should appear past unroll=9")
	}
	// The Tegra2 inflection is earlier than Nehalem's.
	tegMinAt, nehMinAt := 0, 0
	tegMin, nehMin := math.Inf(1), math.Inf(1)
	for u := 1; u <= 12; u++ {
		if accT(u) < tegMin {
			tegMin, tegMinAt = accT(u), u
		}
		if accN(u) < nehMin {
			nehMin, nehMinAt = accN(u), u
		}
	}
	if tegMinAt >= nehMinAt {
		t.Errorf("Tegra2 access minimum at unroll=%d should precede Nehalem's at %d",
			tegMinAt, nehMinAt)
	}
}

// "The shapes of the curves are somehow similar but differ drastically
// in scale."
func TestFigure7ScaleGap(t *testing.T) {
	neh, err := variant(platform.XeonX5550(), sweepN, 4)
	if err != nil {
		t.Fatal(err)
	}
	teg, err := variant(platform.Tegra2Node(), sweepN, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gap := teg.CyclesPerPoint / neh.CyclesPerPoint; gap < 3 {
		t.Errorf("Tegra2/Nehalem cycle gap = %.1fx, want drastic (>3x)", gap)
	}
}

// Both cycle curves are roughly convex: they fall to a single minimum
// and never dip again afterwards.
func TestFigure7Convexity(t *testing.T) {
	for _, p := range []*platform.Platform{platform.XeonX5550(), platform.Tegra2Node()} {
		rs, err := SweepUnroll(p, sweepN, 12)
		if err != nil {
			t.Fatal(err)
		}
		best := BestUnroll(rs)
		for i := 1; i < len(rs); i++ {
			u := rs[i].Unroll
			if u <= best && rs[i].CyclesPerPoint > rs[i-1].CyclesPerPoint*1.001 {
				t.Errorf("%s: cycles rose before the minimum at unroll=%d", p.Name, u)
			}
			if u > best && rs[i].CyclesPerPoint < rs[i-1].CyclesPerPoint*0.999 {
				t.Errorf("%s: cycles dipped after the minimum at unroll=%d", p.Name, u)
			}
		}
	}
}

func TestMeasureVariantErrors(t *testing.T) {
	p := platform.XeonX5550()
	if _, err := variant(p, sweepN, 0); err == nil {
		t.Error("unroll 0 accepted")
	}
	if _, err := variant(p, sweepN, 65); err == nil {
		t.Error("unroll 65 accepted")
	}
	if _, err := variant(p, 8, 1); err == nil {
		t.Error("n below filter support accepted")
	}
	if _, err := SweepUnroll(p, sweepN, 65); err == nil {
		t.Error("a sweep to unroll 65 accepted")
	}
}

func TestMeasureVariantDeterminism(t *testing.T) {
	p := platform.Tegra2Node()
	a, err := variant(p, sweepN, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := variant(p, sweepN, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.CacheAccesses != b.CacheAccesses {
		t.Error("variant measurement not deterministic")
	}
}

// A sweep measures every variant on one hierarchy, reset before each:
// on every built-in platform, at the quick and full sizes, each
// VariantResult is the one a fresh hierarchy gives.
func TestSweepMatchesFreshHierarchies(t *testing.T) {
	for _, name := range platform.Names() {
		p := platform.MustLookup(name)
		for _, n := range []int{2048, sweepN} {
			sweep, err := SweepUnroll(p, n, 12)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range sweep {
				want, err := variant(p, n, got.Unroll)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d unroll %d: the sweep gives %+v, a fresh hierarchy %+v", name, n, got.Unroll, got, want)
				}
			}
		}
	}
}

// spillPerTouch is spill without the bulk: every touch its own run.
func spillPerTouch(h *cache.Hierarchy, base uint64, touches int) cache.RunResult {
	var rr cache.RunResult
	for s := 0; s < touches; s++ {
		rr.Add(h.AccessRun(base+uint64((s%frameSlots)*elem), 0, 1, s%2 == 0))
	}
	return rr
}

// The bulk spill leaves what the touch-by-touch loop leaves: the same
// RunResult, counters at every level and AppendState, iteration after
// iteration, with random loads and stores around the frame in between.
// Random L1 geometries with 8 to 256 B lines, some with fewer sets than
// the frame spans lines (which keep the loop), over an L2 or DRAM, and
// frames at a 16-byte or a page boundary, as measureVariant places them.
func TestSpillBulkMatchesPerTouch(t *testing.T) {
	rng := xrand.New(53)
	var bulk, loop int
	for trial := 0; trial < 400; trial++ {
		line := 8 << rng.Intn(6)
		sets, ways := 1<<rng.Intn(7), 1<<rng.Intn(4)
		levels := []cache.Config{{Name: "L1", Level: 1, Size: sets * ways * line, LineSize: line, Associativity: ways, HitLatency: 3}}
		if rng.Intn(2) == 0 {
			levels = append(levels, cache.Config{Name: "L2", Level: 2, Size: 4 * levels[0].Size, LineSize: line, Associativity: 2 * ways, HitLatency: 14})
		}
		build := func() *cache.Hierarchy {
			h, err := cache.NewHierarchy(levels, 90, nil)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		h, ref := build(), build()
		base := uint64(2*16*(1+rng.Intn(8192)) + 1<<20) // 2n elements, then 1 MiB
		if rng.Intn(4) == 0 {
			base &^= 4095
		}
		frameLines := (base+frameSlots*elem-1)/uint64(line) - base/uint64(line) + 1
		ctx := fmt.Sprintf("trial %d (%d B lines, %d sets, %d ways, %d levels, base %#x)", trial, line, sets, ways, len(levels), base)
		for it := 0; it < 6; it++ {
			// Loads and stores that share sets with the frame.
			for k := rng.Intn(4); k > 0; k-- {
				va := base - uint64(levels[0].Size) + uint64(rng.Intn(3*levels[0].Size))
				stride, count, write := 8*rng.Intn(9), 1+rng.Intn(40), rng.Intn(2) == 0
				if got, want := h.AccessRun(va, stride, count, write), ref.AccessRun(va, stride, count, write); got != want {
					t.Fatalf("%s: traffic diverges: %+v vs %+v", ctx, got, want)
				}
			}
			touches := rng.Intn(120)
			if frameLines <= uint64(sets) && touches > frameSlots {
				bulk++
			} else if touches > frameSlots {
				loop++
			}
			got, want := spill(h, base, touches), spillPerTouch(ref, base, touches)
			if got != want {
				t.Fatalf("%s iteration %d, %d touches: spill %+v, per touch %+v", ctx, it, touches, got, want)
			}
			var gs, ws cache.HierarchyStats
			h.ReadStats(&gs)
			ref.ReadStats(&ws)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s iteration %d: counters %+v, per touch %+v", ctx, it, gs, ws)
			}
			if !slices.Equal(h.AppendState(nil), ref.AppendState(nil)) {
				t.Fatalf("%s iteration %d: state differs from the per-touch loop's", ctx, it)
			}
		}
	}
	t.Logf("%d spills in bulk, %d kept the loop (frame lines above L1 sets)", bulk, loop)
	if bulk < 100 || loop < 100 {
		t.Fatalf("only %d bulk and %d looped spills; the suite tests too little", bulk, loop)
	}
}

func TestSweetSpotEmpty(t *testing.T) {
	lo, hi := SweetSpot(nil, 0.15)
	if lo != 0 || hi != 0 {
		t.Error("empty sweep should give [0:0]")
	}
}
