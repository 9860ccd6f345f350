package experiments

import (
	"fmt"
	"io"
	"strconv"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/units"
)

func init() {
	register(Experiment{
		ID:    "scale-membench",
		Title: "§V.A at scale: strided sweeps over related-work working sets",
		Cost:  80, // hundreds-of-MB arrays: second only to the locality sweep
		Run:   runScaleMembench,
	})
}

// scaleMembenchSizes spans the working sets of the Mont-Blanc follow-up
// (arXiv:1508.05075) and ThunderX2 (arXiv:2007.04868) measurement
// regimes — far beyond any cache in the registry — which the
// element-at-a-time simulator could not afford. The batched engine
// (translation per page, set machinery per line, steady passes
// replayed; see internal/cache/CACHE.md) makes them routine.
func scaleMembenchSizes(quick bool) []int {
	if quick {
		return []int{4 * units.MiB, 16 * units.MiB}
	}
	return []int{64 * units.MiB, 256 * units.MiB}
}

// scaleMembenchStrides probes line-resident, line-exact and
// page-skipping access patterns (in 64-bit elements).
var scaleMembenchStrides = []int{1, 8, 64}

// scaleMembenchPlatforms are the Arm generations the sweep compares.
var scaleMembenchPlatforms = []string{"Snowball", "ThunderX2"}

// runScaleMembench measures every size x stride cell on each platform.
// Every cell starts cold, as a membench process per configuration
// would: one Runner per platform, whose Run resets the hierarchy, so a
// cell's cold pass fills every level in closed form.
func runScaleMembench(w io.Writer, o Options) error {
	sizes := scaleMembenchSizes(o.Quick)
	for _, name := range scaleMembenchPlatforms {
		p := platform.MustLookup(name)
		// A contiguous mapping through the real TLB model: the batched
		// path still pays translation once per page and the miss
		// penalty whenever the page walk exceeds the TLB reach.
		runner, err := membench.NewRunner(p, mem.NewContiguousMapper(0))
		if err != nil {
			return err
		}
		headers := []string{"size \\ stride"}
		for _, stride := range scaleMembenchStrides {
			headers = append(headers, strconv.Itoa(stride))
		}
		tab := &report.Table{
			Title:   fmt.Sprintf("%s: effective bandwidth (GB/s) by array size x stride (64-bit elements)", p.Name),
			Headers: headers,
		}
		for _, size := range sizes {
			row := []interface{}{units.Bytes(int64(size))}
			for _, stride := range scaleMembenchStrides {
				res, err := runner.Run(membench.Config{
					ArrayBytes:  size,
					StrideElems: stride,
					Width:       cpu.W64,
				})
				if err != nil {
					return err
				}
				row = append(row, res.Bandwidth/1e9)
			}
			tab.AddRow(row...)
		}
		fmt.Fprint(w, tab.String())
	}
	fmt.Fprintln(w, "At related-work scale bandwidth is flat across sizes — the working")
	fmt.Fprintln(w, "set has settled into its backing level — and collapses with stride as")
	fmt.Fprintln(w, "line utilization drops; past the line size the TLB reach is the last")
	fmt.Fprintln(w, "locality lever.")
	return nil
}
