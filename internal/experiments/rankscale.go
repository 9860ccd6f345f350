package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/apps/specfem"
	"montblanc/internal/cluster"
)

// scale-ranks pushes the strong-scaling study past the paper's 128-core
// ceiling into the regimes of the Mont-Blanc follow-on work: the
// Mont-Blanc prototype evaluation (arXiv:1508.05075) and the ThunderX2
// cluster study (arXiv:2007.04868) both measure at hundreds-to-
// thousands of cores. The event-heap scheduler makes these rank counts
// affordable to simulate: commit cost is O(log R) per event.

func init() {
	// The Title is part of the pinned quick_all golden; the full
	// (non-quick) curve now reaches 10240 ranks.
	register(Experiment{
		ID:    "scale-ranks",
		Title: "Strong scaling of SPECFEM3D to 512 ranks (follow-on regimes)",
		Cost:  25,
		Run:   runScaleRanks,
	})
}

// scaleRanksShape picks the cluster size, core counts and workload for
// the mode: quick mode is pinned byte-for-byte by the golden suite and
// keeps the original 256-node/512-rank shape; the full curve runs a
// 5120-node slice out to 10240 ranks with a shortened time loop (the
// halo/compute ratio per step is size-independent, so fewer steps keep
// the curve's shape while bounding the wall clock at O(10k) ranks).
func scaleRanksShape(o Options) (nodes int, cores []int, cfg specfem.ScalingConfig) {
	if o.Quick {
		cfg.Steps = 5
		return 256, []int{32, 128, 512}, cfg
	}
	cfg.Steps = 20
	return 5120, []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 10240}, cfg
}

// ScaleRanksData runs the SPECFEM3D halo-exchange workload on a
// Tibidabo-style slice (two-level switch hierarchy) out to 10240 ranks
// — 80x the paper's largest Figure 3 configuration.
func ScaleRanksData(o Options) ([]cluster.SpeedupPoint, error) {
	nodes, cores, cfg := scaleRanksShape(o)
	c, err := cluster.Tibidabo(nodes)
	if err != nil {
		return nil, err
	}
	return specfem.StrongScaling(c, cores, cfg)
}

func runScaleRanks(w io.Writer, o Options) error {
	nodes, _, _ := scaleRanksShape(o)
	points, err := ScaleRanksData(o)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Rank scaling: SPECFEM3D on a %d-node Tibidabo slice (32-rank baseline)", nodes)
	renderScaling(w, title, points)
	last := points[len(points)-1]
	fmt.Fprintf(w, "efficiency at %d cores vs 32-core run: %.0f%%\n", last.Cores, last.Efficiency*100)
	fmt.Fprintln(w, "regime: the Mont-Blanc prototype (arXiv:1508.05075) and ThunderX2")
	fmt.Fprintln(w, "cluster (arXiv:2007.04868) studies evaluate at hundreds of cores;")
	fmt.Fprintln(w, "the O(log R) event-heap scheduler makes this affordable to simulate.")
	return nil
}
