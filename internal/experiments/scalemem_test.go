package experiments

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/platform"
)

// The quick scale-membench sweep's simulated passes per cell, pinned so
// a lost steady-pass certificate or settling forecast fails here
// instead of only slowing the benchmark. Each cell starts cold and runs
// 2 warm and 2 measured passes; the first pass proves the rest, 12
// passes in all. Streaming Snowball cells are certified on their first
// pass; the ThunderX2 stride-1 cells fill the 32 MiB L3 on theirs while
// the L1 and L2 thrash in a multiple of their ways, so the settling
// forecast gives the next pass, which hits in the L3.
func TestScaleMembenchSimulatedPasses(t *testing.T) {
	want := map[string][2][3]int{ // by size, then stride
		"Snowball":  {{1, 1, 1}, {1, 1, 1}},
		"ThunderX2": {{1, 1, 1}, {1, 1, 1}},
	}
	total := 0
	for _, name := range scaleMembenchPlatforms {
		runner, err := membench.NewRunner(platform.MustLookup(name), mem.NewContiguousMapper(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range scaleMembenchSizes(true) {
			for j, stride := range scaleMembenchStrides {
				res, err := runner.Run(membench.Config{ArrayBytes: size, StrideElems: stride, Width: cpu.W64})
				if err != nil {
					t.Fatal(err)
				}
				total += res.SimulatedPasses
				if got := res.SimulatedPasses; got != want[name][i][j] {
					t.Errorf("%s %d MiB stride %d: %d simulated passes, want %d",
						name, size>>20, stride, got, want[name][i][j])
				}
				if n := res.SimulatedPasses + res.ReplayedPasses; n != 4 {
					t.Errorf("%s %d MiB stride %d: %d passes accounted, want 4", name, size>>20, stride, n)
				}
			}
		}
	}
	if total != 12 {
		t.Errorf("%d simulated passes in the sweep, want 12", total)
	}
}

// The quick locality sweep's simulated passes per cell, pinned like
// scale-membench's: 30 of the 120 passes run, one per cell. Every cell
// starts from a fresh hierarchy under identity mapping. The Snowball
// 2 MiB cells' cold pass already misses every set of both levels in a
// multiple of its ways and is certified at once; every other cell's
// cold pass fills the level that holds the array, below levels that
// thrash in a multiple of their ways, so the settling forecast gives
// the next pass.
func TestLocalitySimulatedPasses(t *testing.T) {
	want := map[string][3][5]int{ // by size, then stride
		"Snowball":  {{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}},
		"XeonX5550": {{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}},
	}
	total := 0
	for _, name := range localityPlatforms {
		p := platform.MustLookup(name)
		for i, size := range localitySizes(true) {
			for j, stride := range localityStrides {
				// LocalityProfile's cell: a fresh Runner, identity mapping.
				res, err := membench.Run(p, nil, membench.Config{ArrayBytes: size, StrideElems: stride})
				if err != nil {
					t.Fatal(err)
				}
				total += res.SimulatedPasses
				if got := res.SimulatedPasses; got != want[name][i][j] {
					t.Errorf("%s %d KiB stride %d: %d simulated passes, want %d",
						name, size>>10, stride, got, want[name][i][j])
				}
				if n := res.SimulatedPasses + res.ReplayedPasses; n != 4 {
					t.Errorf("%s %d KiB stride %d: %d passes accounted, want 4", name, size>>10, stride, n)
				}
			}
		}
	}
	if total != 30 {
		t.Errorf("%d simulated passes in the sweep, want 30", total)
	}
}
