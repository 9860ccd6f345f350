package magicfilter

import (
	"math"
	"testing"
	"testing/quick"

	"montblanc/internal/platform"
	"montblanc/internal/xrand"
)

func TestCoefficientsUnitDCGain(t *testing.T) {
	w := Coefficients()
	sum := 0.0
	for _, c := range w {
		sum += c
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("tap sum = %v, want 1", sum)
	}
}

func TestApply1DPreservesConstants(t *testing.T) {
	src := make([]float64, 64)
	for i := range src {
		src[i] = 3.5
	}
	dst := make([]float64, 64)
	if err := Apply1D(dst, src); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if math.Abs(v-3.5) > 1e-9 {
			t.Fatalf("dst[%d] = %v, want 3.5 (unit DC gain)", i, v)
		}
	}
}

func TestApply1DLengthMismatch(t *testing.T) {
	if err := Apply1D(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestApply1DEmpty(t *testing.T) {
	if err := Apply1D(nil, nil); err != nil {
		t.Errorf("empty input should be fine: %v", err)
	}
}

// Linearity: filter(a*x + b*y) == a*filter(x) + b*filter(y).
func TestApply1DLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 16 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
			y[i] = rng.Float64()*2 - 1
			z[i] = 2*x[i] + 3*y[i]
		}
		fx, fy, fz := make([]float64, n), make([]float64, n), make([]float64, n)
		if Apply1D(fx, x) != nil || Apply1D(fy, y) != nil || Apply1D(fz, z) != nil {
			return false
		}
		for i := range fz {
			if math.Abs(fz[i]-(2*fx[i]+3*fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Shift invariance under periodic boundaries: filtering a rotated signal
// equals rotating the filtered signal.
func TestApply1DShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw uint8) bool {
		rng := xrand.New(seed)
		n := 32 + rng.Intn(64)
		shift := int(shiftRaw) % n
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		rot := make([]float64, n)
		for i := range x {
			rot[i] = x[(i+shift)%n]
		}
		fx, frot := make([]float64, n), make([]float64, n)
		if Apply1D(fx, x) != nil || Apply1D(frot, rot) != nil {
			return false
		}
		for i := range fx {
			if math.Abs(frot[i]-fx[(i+shift)%n]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Every unroll degree computes exactly the same result as the reference.
func TestUnrolledVariantsMatchReference(t *testing.T) {
	rng := xrand.New(7)
	n := 97 // odd length exercises the remainder loop
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()*10 - 5
	}
	ref := make([]float64, n)
	if err := Apply1D(ref, src); err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 12; u++ {
		got := make([]float64, n)
		if err := Apply1DUnrolled(got, src, u); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if math.Abs(got[i]-ref[i]) > 1e-12 {
				t.Fatalf("unroll=%d: dst[%d] = %v, want %v", u, i, got[i], ref[i])
			}
		}
	}
	if err := Apply1DUnrolled(make([]float64, n), src, 0); err == nil {
		t.Error("unroll 0 accepted")
	}
}

func TestApply3DPreservesConstants(t *testing.T) {
	const n1, n2, n3 = 8, 6, 10
	src := make([]float64, n1*n2*n3)
	for i := range src {
		src[i] = -1.25
	}
	dst := make([]float64, len(src))
	if err := Apply3D(dst, src, n1, n2, n3); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if math.Abs(v+1.25) > 1e-9 {
			t.Fatalf("dst[%d] = %v", i, v)
		}
	}
}

func TestApply3DDimensionMismatch(t *testing.T) {
	if err := Apply3D(make([]float64, 10), make([]float64, 10), 2, 2, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// Apply3D must not mutate its input.
func TestApply3DPreservesSource(t *testing.T) {
	rng := xrand.New(3)
	src := make([]float64, 4*4*4)
	for i := range src {
		src[i] = rng.Float64()
	}
	orig := append([]float64(nil), src...)
	dst := make([]float64, len(src))
	if err := Apply3D(dst, src, 4, 4, 4); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != orig[i] {
			t.Fatal("Apply3D mutated src")
		}
	}
}

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
