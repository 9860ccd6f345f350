// Quickstart: compare a low-power ARM board against a server-class Xeon
// on the paper's five workloads and print the Table II verdict — raw
// speed and, crucially, energy-to-solution under the paper's
// conservative power model.
package main

import (
	"fmt"
	"log"

	"montblanc/internal/core"
	"montblanc/internal/platform"
)

func main() {
	snowball := platform.MustLookup("Snowball")
	xeon := platform.MustLookup("XeonX5550")
	fmt.Println("Platforms under test:")
	fmt.Println("  *", snowball)
	fmt.Println("  *", xeon)
	fmt.Println()

	rows, err := core.TableII()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %14s %14s %8s %13s\n",
		"Benchmark", "Snowball", "Xeon", "Ratio", "Energy Ratio")
	for _, r := range rows {
		fmt.Printf("%-12s %11.1f %s %11.1f %s %8.1f %13.2f\n",
			r.Workload, r.Candidate, r.Unit, r.Reference, r.Unit, r.Ratio, r.EnergyRatio)
	}

	fmt.Println()
	wins := 0
	for _, r := range rows {
		if r.EnergyRatio < 0.9 {
			wins++
		}
	}
	fmt.Printf("The Xeon is %0.f-%0.f times faster, yet the ARM board needs less\n",
		rows[1].Ratio, rows[0].Ratio)
	fmt.Printf("energy on %d of %d workloads — the Mont-Blanc bet in one table.\n",
		wins, len(rows))
}
