// Package top500 models Figure 1 — "Exponential growth of
// supercomputing power as recorded by the TOP500" — from the embedded
// historical list data (June lists, 1993-2012, approximate public Rmax
// figures). It fits the exponential trend and reproduces the paper's
// framing: an exaflop machine around 2018 and the factor-25 efficiency
// gap against the 20 MW power barrier.
package top500

import (
	"errors"

	"montblanc/internal/stats"
)

// Entry is one TOP500 list snapshot in GFLOPS.
type Entry struct {
	Year  int
	TopGF float64 // #1 system Rmax
	SumGF float64 // sum of all 500 systems
	LowGF float64 // #500 system Rmax
}

// Entries returns the embedded June-list history, 1993-2012.
func Entries() []Entry {
	return []Entry{
		{1993, 59.7, 1170, 0.4},
		{1994, 143.4, 2200, 0.8},
		{1995, 170, 3900, 1.4},
		{1996, 368.2, 6700, 2.1},
		{1997, 1068, 10900, 3.2},
		{1998, 1338, 17100, 4.7},
		{1999, 2379, 28900, 9.7},
		{2000, 4938, 54800, 15.6},
		{2001, 7226, 89400, 28.2},
		{2002, 35860, 193000, 47.8},
		{2003, 35860, 375000, 99.9},
		{2004, 35860, 624000, 242},
		{2005, 136800, 1690000, 532},
		{2006, 280600, 2790000, 1170},
		{2007, 280600, 4920000, 2740},
		{2008, 1026000, 11700000, 4500},
		{2009, 1105000, 22600000, 9600},
		{2010, 1759000, 32400000, 20000},
		{2011, 8162000, 58700000, 39100},
		{2012, 16320000, 123000000, 60800},
	}
}

// Trend is a fitted exponential growth model of one TOP500 series.
type Trend struct {
	Fit      stats.ExpFit
	BaseYear int
}

// series extracts a column.
func series(pick func(Entry) float64) (xs, ys []float64, base int) {
	entries := Entries()
	base = entries[0].Year
	for _, e := range entries {
		xs = append(xs, float64(e.Year-base))
		ys = append(ys, pick(e))
	}
	return xs, ys, base
}

// FitTop fits the #1-system performance trend.
func FitTop() (Trend, error) {
	xs, ys, base := series(func(e Entry) float64 { return e.TopGF })
	fit, err := stats.FitExponential(xs, ys)
	if err != nil {
		return Trend{}, err
	}
	return Trend{Fit: fit, BaseYear: base}, nil
}

// FitSum fits the aggregate-performance trend.
func FitSum() (Trend, error) {
	xs, ys, base := series(func(e Entry) float64 { return e.SumGF })
	fit, err := stats.FitExponential(xs, ys)
	if err != nil {
		return Trend{}, err
	}
	return Trend{Fit: fit, BaseYear: base}, nil
}

// GrowthPerYear returns the fitted multiplicative growth factor.
func (t Trend) GrowthPerYear() float64 { return t.Fit.G }

// Predict returns the trend value (GFLOPS) for a calendar year.
func (t Trend) Predict(year int) float64 {
	return t.Fit.Predict(float64(year - t.BaseYear))
}

// YearReaching returns the (fractional) calendar year at which the trend
// reaches the given performance in GFLOPS.
func (t Trend) YearReaching(gflops float64) (float64, error) {
	if gflops <= 0 {
		return 0, errors.New("top500: non-positive target")
	}
	return float64(t.BaseYear) + t.Fit.SolveFor(gflops), nil
}

// ExaflopGF is one exaflop in GFLOPS.
const ExaflopGF = 1e9
