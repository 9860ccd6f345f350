// Membench: the §V.A methodology on the simulated Snowball — how
// physical page allocation and the OS scheduler make naive benchmarking
// on ARM platforms misleading, and why randomized, repeated measurement
// is mandatory.
package main

import (
	"fmt"
	"log"

	"montblanc/internal/membench"
	"montblanc/internal/osmodel"
	"montblanc/internal/platform"
	"montblanc/internal/stats"
	"montblanc/internal/units"
)

func main() {
	snowball := platform.MustLookup("Snowball")

	fmt.Println("1) Physical page allocation (§V.A.1)")
	fmt.Println("   32KB array = exactly the L1; 4-way L1 has two page colours.")
	for _, policy := range []osmodel.PagePolicy{osmodel.ContiguousPages, osmodel.RandomPages} {
		var bws []float64
		for seed := uint64(1); seed <= 8; seed++ {
			res, err := membench.Run(snowball, policy.NewMapper(seed),
				membench.Config{ArrayBytes: 32 * units.KiB})
			if err != nil {
				log.Fatal(err)
			}
			bws = append(bws, res.Bandwidth/1e9)
		}
		s := stats.Summarize(bws)
		fmt.Printf("   %-11s pages: %0.2f-%0.2f GB/s across runs (CV %.1f%%)\n",
			policy, s.Min, s.Max, stats.CoeffVar(bws)*100)
	}

	fmt.Println()
	fmt.Println("2) Real-time scheduling (§V.A.2): ten independent runs")
	var sizes []int
	for s := 2 * units.KiB; s <= 50*units.KiB; s += 2 * units.KiB {
		sizes = append(sizes, s)
	}
	unlucky := 0
	var worst stats.Modes
	var worstStreaks stats.Streaks
	for seed := uint64(1); seed <= 10; seed++ {
		ms, err := membench.Sweep(snowball, seed, sizes, 20)
		if err != nil {
			log.Fatal(err)
		}
		var bws []float64
		var marks []bool
		for _, m := range ms {
			bws = append(bws, m.Bandwidth)
			marks = append(marks, m.Degraded)
		}
		streaks := stats.FindStreaks(marks)
		if streaks.Total == 0 {
			continue
		}
		unlucky++
		if modes := stats.TwoModes(bws); modes.Ratio > worst.Ratio {
			worst, worstStreaks = modes, streaks
		}
	}
	fmt.Printf("   %d of 10 runs hit a degraded scheduler window\n", unlucky)
	fmt.Printf("   worst run: bimodal=%v, mode ratio %.1fx (paper: ~5x),\n",
		worst.Bimodal, worst.Ratio)
	fmt.Printf("   %d degraded measurements in %d consecutive episode(s)\n",
		worstStreaks.Total, worstStreaks.Count)

	fmt.Println()
	fmt.Println("3) The optimization grid (Figure 6) on this ARM board")
	grid, err := membench.OptimizationGrid(snowball, 50*units.KiB, []int{1, 8})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range grid {
		fmt.Printf("   %5s unroll=%d: %5.2f GB/s\n", g.Width, g.Unroll, g.Bandwidth/1e9)
	}
	fmt.Println("   => 128-bit NEON no better than 32-bit; unrolling it hurts.")
}
