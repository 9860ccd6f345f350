package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/membench"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/units"
)

func init() {
	register(Experiment{
		ID:    "locality",
		Title: "§V.A: temporal/spatial locality profile of the stride kernel",
		Cost:  100, // the largest working-set sweep: dominates the suite's wall-clock
		Run:   runLocality,
	})
}

// localitySizes spans L1-resident through DRAM-resident working sets.
func localitySizes(quick bool) []int {
	if quick {
		return []int{16 * units.KiB, 256 * units.KiB, 2 * units.MiB}
	}
	return []int{
		8 * units.KiB, 16 * units.KiB, 32 * units.KiB, 64 * units.KiB,
		256 * units.KiB, 1 * units.MiB, 4 * units.MiB,
	}
}

var localityStrides = []int{1, 2, 4, 8, 16}

// localityPlatforms are the paper's two §V.A machines.
var localityPlatforms = []string{"Snowball", "XeonX5550"}

func runLocality(w io.Writer, o Options) error {
	for _, name := range localityPlatforms {
		p := platform.MustLookup(name)
		profile, err := membench.LocalityProfile(p, localitySizes(o.Quick), localityStrides)
		if err != nil {
			return err
		}
		tab := &report.Table{
			Title:   fmt.Sprintf("%s: effective bandwidth (GB/s) by array size x stride", p.Name),
			Headers: []string{"size \\ stride", "1", "2", "4", "8", "16"},
		}
		for _, size := range localitySizes(o.Quick) {
			row := []interface{}{units.Bytes(int64(size))}
			for _, stride := range localityStrides {
				pt, ok := membench.At(profile, size, stride)
				if !ok {
					return fmt.Errorf("experiments: missing locality cell %d/%d", size, stride)
				}
				row = append(row, pt.Bandwidth/1e9)
			}
			tab.AddRow(row...)
		}
		fmt.Fprint(w, tab.String())
		cliffs := membench.CapacityCliffs(profile, 1)
		fmt.Fprintf(w, "stride-1 capacity cliffs between consecutive sizes: %s\n\n",
			formatCliffs(cliffs))
	}
	fmt.Fprintln(w, "The kernel's two knobs expose the memory hierarchy: array size probes")
	fmt.Fprintln(w, "temporal locality (cache capacities), stride probes spatial locality")
	fmt.Fprintln(w, "(line utilization) — §V.A's 'crude estimation' of both.")
	return nil
}

func formatCliffs(cliffs []float64) string {
	s := ""
	for i, c := range cliffs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.2fx", c)
	}
	return s
}
