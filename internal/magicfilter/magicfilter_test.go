package magicfilter

import (
	"math"
	"testing"

	"montblanc/internal/platform"
)

const sweepN = 4096

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
	neh, err := MeasureVariant(platform.XeonX5550(), sweepN, 4)
	if err != nil {
		t.Fatal(err)
	}
	teg, err := MeasureVariant(platform.Tegra2Node(), sweepN, 4)
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
	if _, err := MeasureVariant(p, sweepN, 0); err == nil {
		t.Error("unroll 0 accepted")
	}
	if _, err := MeasureVariant(p, sweepN, 65); err == nil {
		t.Error("unroll 65 accepted")
	}
	if _, err := MeasureVariant(p, 8, 1); err == nil {
		t.Error("n below filter support accepted")
	}
}

func TestMeasureVariantDeterminism(t *testing.T) {
	p := platform.Tegra2Node()
	a, err := MeasureVariant(p, sweepN, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureVariant(p, sweepN, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.CacheAccesses != b.CacheAccesses {
		t.Error("variant measurement not deterministic")
	}
}

func TestSweetSpotEmpty(t *testing.T) {
	lo, hi := SweetSpot(nil, 0.15)
	if lo != 0 || hi != 0 {
		t.Error("empty sweep should give [0:0]")
	}
}
