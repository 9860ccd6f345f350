package main

import (
	"sort"

	"montblanc/internal/stats"
)

// tailLadder is the set of percentiles a timing's tail may be reported
// at, in tenths of a percent (500 = p50, 999 = p99.9).
var tailLadder = []int{500, 900, 990, 999}

// tailPercentile returns the highest percentile of the ladder that
// leaves at least ten of n samples beyond it, or 0 when even the median
// does not (n < 20). A percentile with fewer samples beyond it reads a
// handful of outliers, not a tail.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// dist summarizes one sample: its size, extremes, median,
// quartiles and the tail percentile chosen by tailPercentile (TailPct 0
// means none).
type dist struct {
	N       int
	Min     float64
	Max     float64
	Median  float64
	Q1, Q3  float64
	TailPct float64
	Tail    float64
}

// summarize computes the dist of xs (which it does not modify).
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{
		N:       len(s),
		Min:     s[0],
		Max:     s[len(s)-1],
		Median:  stats.SortedQuantile(s, 0.5),
		Q1:      stats.SortedQuantile(s, 0.25),
		Q3:      stats.SortedQuantile(s, 0.75),
		TailPct: tailPercentile(len(s)),
	}
	if d.TailPct > 0 {
		d.Tail = stats.SortedQuantile(s, d.TailPct/100)
	}
	return d
}
