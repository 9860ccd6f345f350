package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/core"
	"montblanc/internal/platform"
	"montblanc/internal/power"
	"montblanc/internal/report"
	"montblanc/internal/units"
)

// The sweep* experiment family generalizes Table II from one
// candidate-vs-reference pair to every registered platform: the same
// workload matrix the paper runs on the Snowball and the Xeon, evaluated
// across machine generations (Tibidabo Tegra2 through Mont-Blanc
// Exynos prototypes to a ThunderX2-class server node, plus any machine
// registered from a user spec file via `montblanc -platform-file`).
// The N platforms x M workloads cells are measured in order inside the
// experiment; experiments themselves run in parallel on the runner.
func init() {
	register(Experiment{
		ID:    "sweep-matrix",
		Title: "Cross-platform sweep: Table II workloads on every registered platform",
		Cost:  4,
		Run:   runSweepMatrix,
	})
	register(Experiment{
		ID:    "sweep-energy",
		Title: "Cross-platform sweep: energy to solution and pairwise wins",
		Cost:  4,
		Run:   runSweepEnergy,
	})
	register(Experiment{
		ID:    "sweep-specs",
		Title: "Cross-platform sweep: registered machine envelopes and peaks",
		Cost:  1,
		Run:   runSweepSpecs,
	})
}

// sweepReference anchors the ratio columns: the paper's reference
// server when it is part of the sweep, the first platform otherwise.
const sweepReference = "XeonX5550"

// sweepRef resolves the ratio anchor. core.RefIndex errors when the
// reference is absent (it used to guess index 0 silently); a -platform
// restriction may legitimately exclude the Xeon, so the experiments
// fall back to the first swept platform and say so in the output — the
// anchor of every ratio column is never implicit.
func sweepRef(w io.Writer, s *core.Sweep) int {
	ref, err := s.RefIndex(sweepReference)
	if err != nil {
		fmt.Fprintf(w, "note: reference %s not in this sweep; ratios anchored on %s instead\n",
			sweepReference, s.Platforms[0].Name)
		return 0
	}
	return ref
}

// sweepPlatforms builds the sweep set from the options: the named
// platforms in the given order, or every resolvable platform. Lookups
// go through the options' resolver, so request-scoped inline specs
// (Options.Specs) join the sweep without touching the global registry.
func sweepPlatforms(o Options) ([]*platform.Platform, error) {
	specs, err := o.resolve(true)
	if err != nil {
		return nil, err
	}
	ps := make([]*platform.Platform, len(specs))
	for i, s := range specs {
		if ps[i], err = s.Build(); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// sweepData runs the workload matrix for the option-selected platforms.
func sweepData(o Options) (*core.Sweep, error) {
	ps, err := sweepPlatforms(o)
	if err != nil {
		return nil, err
	}
	return core.RunSweep(ps, core.TableIIWorkloads())
}

// workloadLabel names a matrix row, e.g. "LINPACK (MFLOPS)".
func workloadLabel(w core.Workload) string {
	return fmt.Sprintf("%s (%s)", w.Name, w.Unit)
}

func platformCols(ps []*platform.Platform) []string {
	cols := make([]string, len(ps))
	for i, p := range ps {
		cols[i] = p.Name
	}
	return cols
}

func runSweepMatrix(w io.Writer, o Options) error {
	s, err := sweepData(o)
	if err != nil {
		return err
	}
	ref := sweepRef(w, s)
	fmt.Fprintf(w, "Table II workload matrix across %d platforms (%d cells)\n",
		len(s.Platforms), len(s.Platforms)*len(s.Workloads))

	values := &report.Matrix{
		Title:  "measured values (rates: bigger is better; times: smaller is better)",
		Corner: "workload \\ platform",
		Cols:   platformCols(s.Platforms),
	}
	for wi, wl := range s.Workloads {
		row := make([]interface{}, len(s.Platforms))
		for pi := range s.Platforms {
			row[pi] = s.Values[wi][pi]
		}
		values.AddRow(workloadLabel(wl), row...)
	}
	fmt.Fprint(w, values.String())

	ratios := &report.Matrix{
		Title:  fmt.Sprintf("ratio vs %s (>= 1: reference faster, the Table II convention)", s.Platforms[ref].Name),
		Corner: "workload \\ platform",
		Cols:   platformCols(s.Platforms),
	}
	for wi, wl := range s.Workloads {
		row := make([]interface{}, len(s.Platforms))
		for pi := range s.Platforms {
			row[pi] = s.Ratio(wi, pi, ref)
		}
		ratios.AddRow(workloadLabel(wl), row...)
	}
	fmt.Fprint(w, ratios.String())
	// The generational narrative only holds when the sweep actually
	// contains a 64-bit Arm server; a -platform restriction may not.
	if sweepHasISA(s.Platforms, platform.ARM64) {
		fmt.Fprintln(w, "Successive Arm generations close the raw-speed gap the paper measured")
		fmt.Fprintln(w, "on the Snowball; the server-class aarch64 node finally overturns it.")
	}
	return nil
}

// sweepHasISA reports whether any swept platform runs the given ISA.
func sweepHasISA(ps []*platform.Platform, isa platform.ISA) bool {
	for _, p := range ps {
		if p.ISA == isa {
			return true
		}
	}
	return false
}

func runSweepEnergy(w io.Writer, o Options) error {
	s, err := sweepData(o)
	if err != nil {
		return err
	}
	ref := sweepRef(w, s)
	fmt.Fprintf(w, "Energy to solution across %d platforms (constant-envelope model, §III.C)\n",
		len(s.Platforms))

	energy := &report.Matrix{
		Title:  fmt.Sprintf("energy ratio vs %s (< 1: candidate needs less energy)", s.Platforms[ref].Name),
		Corner: "workload \\ platform",
		Cols:   platformCols(s.Platforms),
	}
	for wi, wl := range s.Workloads {
		row := make([]interface{}, len(s.Platforms))
		for pi := range s.Platforms {
			row[pi] = s.EnergyRatio(wi, pi, ref)
		}
		energy.AddRow(workloadLabel(wl), row...)
	}
	fmt.Fprint(w, energy.String())

	wins := s.PairWins()
	pair := &report.Matrix{
		Title:  fmt.Sprintf("pairwise energy wins (row beats column on k of %d workloads)", len(s.Workloads)),
		Corner: "winner \\ loser",
		Cols:   platformCols(s.Platforms),
	}
	for i, p := range s.Platforms {
		row := make([]interface{}, len(s.Platforms))
		for j := range s.Platforms {
			if i == j {
				row[j] = "-"
			} else {
				row[j] = wins[i][j]
			}
		}
		pair.AddRow(p.Name, row...)
	}
	fmt.Fprint(w, pair.String())
	// The low-power framing only applies when the sweep pits a smaller
	// envelope against the reference.
	for _, p := range s.Platforms {
		if p.Power.Compute < s.Platforms[ref].Power.Compute {
			fmt.Fprintln(w, "The paper's bet restated N ways: low-power nodes lose on speed yet win")
			fmt.Fprintln(w, "on energy for the workloads whose slowdown stays under the power ratio.")
			break
		}
	}
	return nil
}

func runSweepSpecs(w io.Writer, o Options) error {
	ps, err := sweepPlatforms(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Registered machine envelopes (calibration sources in PLATFORMS.md)")
	tab := &report.Table{
		Headers: []string{"platform", "cores x CPU", "ISA", "RAM", "W",
			"peak SP GF", "peak DP GF", "GB/s", "SP GF/W"},
	}
	for _, p := range ps {
		sp := p.PeakFlopsWithAccel(false)
		tab.AddRow(
			p.Name,
			fmt.Sprintf("%d x %s @ %.2fGHz", p.Cores, p.CPU.Name, p.CPU.ClockHz/1e9),
			p.ISA.String(),
			units.Bytes(p.RAMBytes),
			p.Power.Compute,
			sp/1e9,
			p.PeakFlopsWithAccel(true)/1e9,
			p.MemBandwidth/1e9,
			power.GFLOPSPerWatt(sp, p.Power.Compute),
		)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w, "Machines are data: add your own with `montblanc -platform-file mymachine.json`.")
	return nil
}
