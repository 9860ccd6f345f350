package experiments

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/platform"
)

// The quick scale-membench sweep's simulated passes per cell, pinned so
// a lost fixed point fails here instead of only slowing the benchmark.
// Each cell runs 2 warm and 2 measured passes; the fixed point replays
// the rest. The ThunderX2 stride-64 cells sit below the snapshot gate.
func TestScaleMembenchSimulatedPasses(t *testing.T) {
	want := map[string][2][3]int{ // by size, then stride
		"Snowball":  {{2, 1, 1}, {2, 1, 1}},
		"ThunderX2": {{2, 1, 4}, {2, 1, 4}},
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
