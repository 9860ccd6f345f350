// Scaling: run the three paper applications on a simulated Tibidabo
// cluster, print their strong-scaling curves, and show why BigDFT
// collapses — delayed all_to_all_v collectives on congested Ethernet
// switches (Figures 3 and 4).
package main

import (
	"fmt"
	"log"

	"montblanc/internal/apps/bigdft"
	"montblanc/internal/apps/linpack"
	"montblanc/internal/apps/specfem"
	"montblanc/internal/cluster"
	"montblanc/internal/trace"
)

func main() {
	tibidabo, err := cluster.Tibidabo(128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cluster: %s (%d Tegra2 nodes, %d cores, %d GbE switches tier)\n\n",
		tibidabo.Name, tibidabo.Nodes, tibidabo.Cores(), 2)

	fmt.Println("LINPACK (block LU, scatter + ring allgather panel broadcast):")
	lin, err := linpack.StrongScaling(tibidabo, []int{8, 32, 96},
		linpack.ScalingConfig{N: 8192, NB: 64})
	if err != nil {
		log.Fatal(err)
	}
	printPoints(lin)

	fmt.Println("\nSPECFEM3D (halo exchange only — congestion-immune):")
	spec, err := specfem.StrongScaling(tibidabo, []int{4, 32, 128},
		specfem.ScalingConfig{Steps: 10})
	if err != nil {
		log.Fatal(err)
	}
	printPoints(spec)

	small, err := cluster.Tibidabo(32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBigDFT (three alltoallv transposes per iteration):")
	big, err := bigdft.StrongScaling(small, []int{1, 8, 36}, bigdft.ScalingConfig{Iters: 5})
	if err != nil {
		log.Fatal(err)
	}
	printPoints(big)

	// Diagnose the collapse the way the paper did: trace and look at the
	// collectives.
	rep, err := bigdft.TraceDistributed(small, 36, bigdft.ScalingConfig{Iters: 5})
	if err != nil {
		log.Fatal(err)
	}
	cr := trace.AnalyzeCongestion(rep.Trace, "alltoallv")
	fmt.Printf("\nBigDFT at 36 cores: %d of %d alltoallv instances delayed by switch\n",
		cr.Delayed, cr.Instances)
	fmt.Printf("retransmissions (%d fully, %d partially) — the Figure 4 diagnosis.\n",
		cr.FullyDelayed, cr.PartiallyDelayed)
}

func printPoints(points []cluster.SpeedupPoint) {
	for _, p := range points {
		fmt.Printf("  %3d cores: %8.2fs  speedup %6.1f  efficiency %5.1f%%  drops %d\n",
			p.Cores, p.Seconds, p.Speedup, p.Efficiency*100, p.Drops)
	}
}
