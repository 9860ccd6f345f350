package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/apps/bigdft"
	"montblanc/internal/apps/linpack"
	"montblanc/internal/apps/specfem"
	"montblanc/internal/cluster"
	"montblanc/internal/report"
	"montblanc/internal/trace"
)

func init() {
	register(Experiment{ID: "fig3a", Title: "Strong scaling of LINPACK on Tibidabo", Cost: 40, Run: runFig3a})
	register(Experiment{ID: "fig3b", Title: "Strong scaling of SPECFEM3D on Tibidabo", Cost: 10, Run: runFig3b})
	register(Experiment{ID: "fig3c", Title: "Strong scaling of BigDFT on Tibidabo", Cost: 20, Run: runFig3c})
	register(Experiment{ID: "fig4", Title: "Profiling of BigDFT on Tibidabo using 36 cores", Cost: 35, Run: runFig4})
}

func renderScaling(w io.Writer, title string, points []cluster.SpeedupPoint) {
	tab := &report.Table{
		Title:   title,
		Headers: []string{"Cores", "Time (s)", "Speedup", "Efficiency", "Drops"},
	}
	var xs, ys []float64
	for _, p := range points {
		tab.AddRow(p.Cores, p.Seconds, p.Speedup, p.Efficiency, int(p.Drops))
		xs = append(xs, float64(p.Cores))
		ys = append(ys, p.Speedup)
	}
	fmt.Fprint(w, tab.String())
	chart := &report.Chart{XLabel: "Number of Cores", YLabel: "Speedup", Width: 56, Height: 14}
	chart.Add("Ideal", '.', xs, xs)
	chart.Add("measured", 'o', xs, ys)
	fmt.Fprint(w, chart.String())
}

// Fig3aData runs the LINPACK scaling study.
func Fig3aData(o Options) ([]cluster.SpeedupPoint, error) {
	c, err := cluster.Tibidabo(128)
	if err != nil {
		return nil, err
	}
	var cfg linpack.ScalingConfig
	cores := []int{8, 16, 32, 48, 64, 80, 96}
	if o.Quick {
		cfg = linpack.ScalingConfig{N: 4096, NB: 64}
		cores = []int{2, 8, 32}
	}
	return linpack.StrongScaling(c, cores, cfg)
}

func runFig3a(w io.Writer, o Options) error {
	points, err := Fig3aData(o)
	if err != nil {
		return err
	}
	renderScaling(w, "Figure 3a: LINPACK on Tibidabo (block LU, pipelined panel bcast)", points)
	last := points[len(points)-1]
	fmt.Fprintf(w, "efficiency at %d cores: %.0f%% (paper: close to 80%%)\n",
		last.Cores, last.Efficiency*100)
	return nil
}

// Fig3bData runs the SPECFEM3D scaling study (4-core baseline: the
// instance does not fit a single node).
func Fig3bData(o Options) ([]cluster.SpeedupPoint, error) {
	c, err := cluster.Tibidabo(96)
	if err != nil {
		return nil, err
	}
	var cfg specfem.ScalingConfig
	cores := []int{4, 8, 16, 32, 64, 128, 192}
	if o.Quick {
		cfg.Steps = 5
		cores = []int{4, 16, 64}
	}
	return specfem.StrongScaling(c, cores, cfg)
}

func runFig3b(w io.Writer, o Options) error {
	points, err := Fig3bData(o)
	if err != nil {
		return err
	}
	renderScaling(w, "Figure 3b: SPECFEM3D on Tibidabo (halo exchange, 4-core baseline)", points)
	last := points[len(points)-1]
	fmt.Fprintf(w, "efficiency at %d cores vs 4-core run: %.0f%% (paper: ~90%%)\n",
		last.Cores, last.Efficiency*100)
	return nil
}

// Fig3cData runs the BigDFT scaling study.
func Fig3cData(o Options) ([]cluster.SpeedupPoint, error) {
	c, err := cluster.Tibidabo(32)
	if err != nil {
		return nil, err
	}
	cfg := bigdft.ScalingConfig{Seed: o.Seed}
	cores := []int{1, 2, 4, 8, 12, 16, 24, 32, 36}
	if o.Quick {
		cfg.Iters = 3
		cores = []int{1, 8, 36}
	}
	return bigdft.StrongScaling(c, cores, cfg)
}

func runFig3c(w io.Writer, o Options) error {
	points, err := Fig3cData(o)
	if err != nil {
		return err
	}
	renderScaling(w, "Figure 3c: BigDFT on Tibidabo (alltoallv transposes)", points)
	last := points[len(points)-1]
	fmt.Fprintf(w, "efficiency at %d cores: %.0f%% — drops rapidly (paper: 'more troubling')\n",
		last.Cores, last.Efficiency*100)
	return nil
}

// Fig4Data runs the 36-core BigDFT trace and its congestion analysis.
func Fig4Data(o Options) (*trace.Trace, trace.CongestionReport, error) {
	c, err := cluster.Tibidabo(32)
	if err != nil {
		return nil, trace.CongestionReport{}, err
	}
	cfg := bigdft.ScalingConfig{Seed: o.Seed}
	if o.Quick {
		cfg.Iters = 3
	}
	rep, err := bigdft.TraceDistributed(c, 36, cfg)
	if err != nil {
		return nil, trace.CongestionReport{}, err
	}
	return rep.Trace, trace.AnalyzeCongestion(rep.Trace, "alltoallv"), nil
}

func runFig4(w io.Writer, o Options) error {
	tr, cr, err := Fig4Data(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: BigDFT on 36 cores — alltoallv congestion analysis")
	tab := &report.Table{Headers: []string{"quantity", "value"}}
	tab.AddRow("alltoallv instances", cr.Instances)
	tab.AddRow("delayed (contain retransmissions)", cr.Delayed)
	tab.AddRow("fully delayed (all nodes)", cr.FullyDelayed)
	tab.AddRow("partially delayed (only part)", cr.PartiallyDelayed)
	tab.AddRow("total retransmissions", cr.TotalDrops)
	if cr.MeanCleanDuration > 0 {
		tab.AddRow("mean clean duration (ms)", cr.MeanCleanDuration*1e3)
	}
	tab.AddRow("mean delayed duration (ms)", cr.MeanDelayedDuration*1e3)
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w, "\nParaver-style timeline ('A' = alltoallv, '=' = compute):")
	fmt.Fprint(w, tr.Gantt(96))
	fmt.Fprintln(w, "diagnosis: the Ethernet switch port buffers overflow under the")
	fmt.Fprintln(w, "linear alltoallv incast; retransmission timeouts delay the collectives.")
	return nil
}
