package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"montblanc/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance(nil) != 0")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("median of empty should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Errorf("q.25 = %v", q)
	}
	// Interpolated quantile.
	if q := Quantile([]float64{0, 10}, 0.5); q != 5 {
		t.Errorf("interpolated median = %v", q)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-12) || !almost(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if !almost(fit.Predict(10), 21, 1e-12) {
		t.Errorf("Predict(10) = %v", fit.Predict(10))
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("expected error for degenerate x")
	}
}

func TestFitExponentialExact(t *testing.T) {
	// y = 3 * 2^x
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(2, x)
	}
	fit, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.A, 3, 1e-9) || !almost(fit.G, 2, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.SolveFor(3*math.Pow(2, 7)), 7, 1e-9) {
		t.Errorf("SolveFor = %v", fit.SolveFor(3*math.Pow(2, 7)))
	}
}

func TestFitExponentialRejectsNonPositive(t *testing.T) {
	if _, err := FitExponential([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Error("expected error for non-positive y")
	}
}

func TestTwoModesClearlyBimodal(t *testing.T) {
	r := xrand.New(1)
	var xs []float64
	for i := 0; i < 30; i++ {
		xs = append(xs, 1000+10*r.NormFloat64()) // high mode
	}
	for i := 0; i < 12; i++ {
		xs = append(xs, 200+5*r.NormFloat64()) // degraded mode, ~5x lower
	}
	m := TwoModes(xs)
	if !m.Bimodal {
		t.Fatalf("expected bimodal, got %+v", m)
	}
	if !almost(m.Ratio, 5, 0.5) {
		t.Errorf("mode ratio = %v, want ~5", m.Ratio)
	}
	if m.Sizes[0] != 12 || m.Sizes[1] != 30 {
		t.Errorf("mode sizes = %v, want [12 30]", m.Sizes)
	}
}

func TestTwoModesUnimodal(t *testing.T) {
	r := xrand.New(2)
	var xs []float64
	for i := 0; i < 50; i++ {
		xs = append(xs, 100+3*r.NormFloat64())
	}
	if m := TwoModes(xs); m.Bimodal {
		t.Errorf("unimodal sample flagged bimodal: %+v", m)
	}
}

func TestTwoModesTiny(t *testing.T) {
	m := TwoModes([]float64{1, 2})
	if m.Bimodal {
		t.Error("tiny sample should not be bimodal")
	}
}

func TestFindStreaks(t *testing.T) {
	cases := []struct {
		marks []bool
		want  Streaks
	}{
		{[]bool{}, Streaks{}},
		{[]bool{false, false}, Streaks{}},
		{[]bool{true, true, true}, Streaks{Count: 1, Longest: 3, Total: 3}},
		{[]bool{true, false, true, true}, Streaks{Count: 2, Longest: 2, Total: 3}},
		{[]bool{false, true, false, true, false, true}, Streaks{Count: 3, Longest: 1, Total: 3}},
	}
	for i, c := range cases {
		if got := FindStreaks(c.marks); got != c.want {
			t.Errorf("case %d: got %+v, want %+v", i, got, c.want)
		}
	}
}

// Property: mean of (xs + c) == mean(xs) + c and variance unchanged.
func TestMeanVarianceShiftProperty(t *testing.T) {
	f := func(seed uint64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		r := xrand.New(seed)
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			ys[i] = xs[i] + shift
		}
		return almost(Mean(ys), Mean(xs)+shift, 1e-6) &&
			almost(Variance(ys), Variance(xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SortedQuantile must agree exactly with Quantile on pre-sorted data —
// it is the same interpolation minus the copy and sort.
func TestSortedQuantileMatchesQuantile(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for q := -0.1; q <= 1.1; q += 0.07 {
			a, b := Quantile(xs, q), SortedQuantile(sorted, q)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(SortedQuantile(nil, 0.5)) {
		t.Error("empty SortedQuantile should be NaN")
	}
}

// Summarize's single-sort path must match the individual statistics.
func TestSummarizeSingleSortMatches(t *testing.T) {
	xs := []float64{5, 1, 4, 1, 3}
	s := Summarize(xs)
	if s.Min != slices.Min(xs) || s.Max != slices.Max(xs) || s.Median != Quantile(xs, 0.5) {
		t.Errorf("Summarize = %+v, want min/median/max %v/%v/%v",
			s, slices.Min(xs), Quantile(xs, 0.5), slices.Max(xs))
	}
	// The input is not mutated (the sort works on a copy).
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("Summarize mutated its input: %v", xs)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Min) || !math.IsNaN(empty.Median) || !math.IsNaN(empty.Max) {
		t.Errorf("empty Summarize = %+v", empty)
	}
}
