package experiments

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/platform"
)

// The quick scale-membench sweep's simulated passes per cell, pinned so
// a lost steady-pass certificate fails here instead of only slowing the
// benchmark. Each cell runs 2 warm and 2 measured passes; the certified
// pass replays the rest. Streaming Snowball cells are certified on
// their first pass; the ThunderX2 stride-1 cells fill the 32 MiB L3 on
// theirs (a set that misses no more often than it has ways is not
// steady) and are certified on the second.
func TestScaleMembenchSimulatedPasses(t *testing.T) {
	want := map[string][2][3]int{ // by size, then stride
		"Snowball":  {{1, 1, 1}, {1, 1, 1}},
		"ThunderX2": {{2, 1, 1}, {2, 1, 1}},
	}
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
}

// The quick locality sweep's simulated passes per cell, pinned like
// scale-membench's: 55 of the 150 passes run. Every cell is a fresh
// Runner under identity mapping; each needs one pass to fill the
// hierarchy and a second that hits, except the Snowball 2 MiB cells,
// whose cold pass already misses every set of both levels in a
// multiple of its ways and is certified at once.
func TestLocalitySimulatedPasses(t *testing.T) {
	want := map[string][3][5]int{ // by size, then stride
		"Snowball":  {{2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}, {1, 1, 1, 1, 1}},
		"XeonX5550": {{2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}, {2, 2, 2, 2, 2}},
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
	if total != 55 {
		t.Errorf("%d simulated passes in the sweep, want 55", total)
	}
}
