package top500

import (
	"testing"
)

func TestEntriesMonotoneYears(t *testing.T) {
	es := Entries()
	if len(es) != 20 {
		t.Fatalf("entries = %d, want 20 (1993-2012)", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Year != es[i-1].Year+1 {
			t.Errorf("year gap at %d", es[i].Year)
		}
		if es[i].SumGF < es[i-1].SumGF {
			t.Errorf("aggregate performance shrank in %d", es[i].Year)
		}
	}
	for _, e := range es {
		if e.TopGF < e.LowGF {
			t.Errorf("%d: #1 below #500", e.Year)
		}
		if e.SumGF < e.TopGF {
			t.Errorf("%d: sum below #1", e.Year)
		}
	}
}

func TestFitTopGrowthRate(t *testing.T) {
	trend, err := FitTop()
	if err != nil {
		t.Fatal(err)
	}
	// TOP500 #1 grew ~1.8-2x per year over 1993-2012.
	if g := trend.GrowthPerYear(); g < 1.6 || g > 2.2 {
		t.Errorf("growth factor = %.2f, want 1.6-2.2", g)
	}
	if trend.Fit.R2 < 0.95 {
		t.Errorf("fit R2 = %.3f; the growth is famously exponential", trend.Fit.R2)
	}
}

func TestPredictInterpolates(t *testing.T) {
	trend, err := FitTop()
	if err != nil {
		t.Fatal(err)
	}
	// The 2008 prediction should be within an order of magnitude of the
	// Roadrunner measurement (the fit smooths list-to-list jumps).
	p := trend.Predict(2008)
	if p < 1026000/5 || p > 1026000*5 {
		t.Errorf("2008 prediction = %.0f GF, want within 5x of 1.03e6", p)
	}
}

// The paper's framing: "In order to break the exaflops barrier by the
// projected year of 2018".
func TestProjectedExaflopYear(t *testing.T) {
	year := topExaflopYear(t)
	if year < 2016.5 || year > 2020.5 {
		t.Errorf("projected exaflop year = %.1f, want ~2018", year)
	}
}

// topExaflopYear is the year the #1 trend crosses one exaflop, as fig1
// computes it.
func topExaflopYear(t *testing.T) float64 {
	t.Helper()
	trend, err := FitTop()
	if err != nil {
		t.Fatal(err)
	}
	year, err := trend.YearReaching(ExaflopGF)
	if err != nil {
		t.Fatal(err)
	}
	return year
}

func TestYearReachingValidation(t *testing.T) {
	trend, _ := FitTop()
	if _, err := trend.YearReaching(0); err == nil {
		t.Error("non-positive target accepted")
	}
}

func TestFitSum(t *testing.T) {
	trend, err := FitSum()
	if err != nil {
		t.Fatal(err)
	}
	if g := trend.GrowthPerYear(); g < 1.6 || g > 2.2 {
		t.Errorf("sum growth = %.2f", g)
	}
	// Aggregate exaflop arrives earlier than #1 exaflop.
	sumYear, err := trend.YearReaching(ExaflopGF)
	if err != nil {
		t.Fatal(err)
	}
	if topYear := topExaflopYear(t); sumYear >= topYear {
		t.Errorf("sum exaflop (%.1f) should precede #1 exaflop (%.1f)", sumYear, topYear)
	}
}
