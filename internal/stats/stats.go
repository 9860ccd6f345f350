// Package stats provides the descriptive statistics, regressions and
// mode analyses used throughout the reproduction: exponential growth
// fitting for the TOP500 trend (Figure 1), bimodality detection and
// streak analysis for the real-time-scheduler study (Figure 5), and
// plain summaries for every measurement sweep.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoeffVar returns the coefficient of variation (stddev/mean), a
// scale-free noise measure. Returns 0 when the mean is 0.
func CoeffVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the
// sample on every call; callers taking several quantiles of the same
// data should sort once and use SortedQuantile.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return SortedQuantile(s, q)
}

// SortedQuantile is Quantile's fast path: xs must already be sorted
// ascending. No copy, no sort — the repeated-quantile callers
// (Summarize, the collective-delay analyses) pay for one sort total.
func SortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	Max    float64
}

// Summarize computes a Summary of xs. Min, Median and Max come from a
// single sorted copy instead of three independent scans and sorts.
func Summarize(xs []float64) Summary {
	sum := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    math.NaN(),
		Median: math.NaN(),
		Max:    math.NaN(),
	}
	if len(xs) == 0 {
		return sum
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum.Min = s[0]
	sum.Median = SortedQuantile(s, 0.5)
	sum.Max = s[len(s)-1]
	return sum
}

// LinearFit holds the result of an ordinary-least-squares line fit
// y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear fits a straight line to (xs, ys) by least squares.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
	}
	if syy > 0 {
		// R^2 = explained variance fraction.
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// ExpFit holds an exponential growth fit y = A * G^x (G = growth factor
// per unit of x). Used for the TOP500 performance trend.
type ExpFit struct {
	A  float64 // value at x = 0
	G  float64 // growth factor per x unit
	R2 float64 // of the underlying log-linear fit
}

// FitExponential fits y = A*G^x by linear regression in log space.
// All ys must be positive.
func FitExponential(xs, ys []float64) (ExpFit, error) {
	logs := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return ExpFit{}, errors.New("stats: exponential fit needs positive y")
		}
		logs[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, logs)
	if err != nil {
		return ExpFit{}, err
	}
	return ExpFit{
		A:  math.Exp(lin.Intercept),
		G:  math.Exp(lin.Slope),
		R2: lin.R2,
	}, nil
}

// Predict evaluates the fitted exponential at x.
func (f ExpFit) Predict(x float64) float64 { return f.A * math.Pow(f.G, x) }

// SolveFor returns the x at which the fitted exponential reaches y.
func (f ExpFit) SolveFor(y float64) float64 {
	return math.Log(y/f.A) / math.Log(f.G)
}

// Modes is the result of a two-mode (bimodality) analysis.
type Modes struct {
	Bimodal   bool      // true when two well-separated modes were found
	Low, High float64   // mode centers (Low <= High)
	Ratio     float64   // High / Low
	Assign    []bool    // per-sample: true = high mode
	Sizes     [2]int    // number of samples in {low, high} mode
	Gap       float64   // separation / pooled stddev ("d" statistic)
	Centers   []float64 // convenience: {Low, High}
}

// TwoModes performs a 1-D two-means clustering of xs and reports whether
// the sample is meaningfully bimodal. This is the detector behind
// Figure 5: under real-time scheduling the bandwidth samples split into
// a "normal" and a "degraded" mode roughly 5x apart.
func TwoModes(xs []float64) Modes {
	m := Modes{Assign: make([]bool, len(xs))}
	if len(xs) < 4 {
		m.Low, m.High = Mean(xs), Mean(xs)
		m.Ratio = 1
		m.Centers = []float64{m.Low, m.High}
		return m
	}
	// Initialize centers at the 10th and 90th percentiles (one sort for
	// both), then Lloyd iterations; 1-D k-means converges in a handful
	// of steps.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo, hi := SortedQuantile(sorted, 0.1), SortedQuantile(sorted, 0.9)
	if lo == hi {
		hi = lo + 1e-12
	}
	for iter := 0; iter < 64; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		for i, x := range xs {
			if math.Abs(x-lo) <= math.Abs(x-hi) {
				m.Assign[i] = false
				sumLo += x
				nLo++
			} else {
				m.Assign[i] = true
				sumHi += x
				nHi++
			}
		}
		if nLo == 0 || nHi == 0 {
			break
		}
		newLo, newHi := sumLo/float64(nLo), sumHi/float64(nHi)
		if newLo == lo && newHi == hi {
			break
		}
		lo, hi = newLo, newHi
	}
	if lo > hi {
		lo, hi = hi, lo
		for i := range m.Assign {
			m.Assign[i] = !m.Assign[i]
		}
	}
	m.Low, m.High = lo, hi
	m.Centers = []float64{lo, hi}
	var loVals, hiVals []float64
	for i, x := range xs {
		if m.Assign[i] {
			hiVals = append(hiVals, x)
		} else {
			loVals = append(loVals, x)
		}
	}
	m.Sizes = [2]int{len(loVals), len(hiVals)}
	if lo > 0 {
		m.Ratio = hi / lo
	}
	// Separation statistic: distance between centers over pooled spread.
	pooled := math.Sqrt((Variance(loVals)*float64(len(loVals)) +
		Variance(hiVals)*float64(len(hiVals))) / float64(len(xs)))
	if pooled == 0 {
		pooled = 1e-12
	}
	m.Gap = (hi - lo) / pooled
	// Declare bimodality when both modes are populated (>=5% each), the
	// centers are far apart relative to in-mode spread, and the ratio is
	// substantial.
	minFrac := 0.05 * float64(len(xs))
	m.Bimodal = float64(m.Sizes[0]) >= minFrac && float64(m.Sizes[1]) >= minFrac &&
		m.Gap > 4 && m.Ratio > 1.8
	return m
}

// Streaks describes maximal runs of "true" in a boolean sequence.
type Streaks struct {
	Count   int // number of maximal true-runs
	Longest int // length of the longest run
	Total   int // total number of true values
}

// FindStreaks scans marks and summarizes its true-runs. Figure 5b's
// observation — "all degraded measures occurred consecutively" — shows
// up as Count == 1 with Longest == Total.
func FindStreaks(marks []bool) Streaks {
	var s Streaks
	run := 0
	for _, m := range marks {
		if m {
			s.Total++
			run++
			if run > s.Longest {
				s.Longest = run
			}
			if run == 1 {
				s.Count++
			}
		} else {
			run = 0
		}
	}
	return s
}
