package experiments

import (
	"fmt"
	"io"

	"montblanc/internal/core"
	"montblanc/internal/fault"
	"montblanc/internal/platform"
	"montblanc/internal/report"
)

// The resilience* experiment family prices failures: the paper's
// machines trade node power for node count, and more nodes means more
// failures — resilience overhead (checkpoint I/O, lost work, restarts,
// idle downtime) is part of any honest energy-to-solution comparison.
// The checkpointing mini-app (core.RunResilienceProbe) runs the same
// work on every registered platform under deterministic fault schedules
// (internal/fault) and state-resolved power profiles, so both matrices
// — time and joules — come out of one simulated trace.
func init() {
	register(Experiment{
		ID:    "resilience-sweep",
		Title: "Resilience sweep: time- and energy-to-solution vs failure rate x checkpoint interval",
		Cost:  6,
		Run:   runResilienceSweep,
	})
	register(Experiment{
		ID:    "resilience-daly",
		Title: "Resilience: time-to-solution around the Daly-optimal checkpoint interval",
		Cost:  5,
		Run:   runResilienceDaly,
	})
}

// resilienceSeed mixes the option seed into the fault schedules so
// -seed varies the crash draws (and, being part of the cache key via
// Options.Seed, never aliases another run's cache entry).
const resilienceSeed = 0x7265736964 // "resid"

// resilienceConfig sizes the probe explicitly — every knob the
// experiments reason about (horizons, checkpoint costs) is spelled out
// rather than left to core defaults.
func resilienceConfig(o Options) core.ResilienceConfig {
	if o.Quick {
		return core.ResilienceConfig{
			Nodes: 4, WorkFlops: 4e9, CheckpointBytes: 32 << 20,
			HaloBytes: 64 << 10, Efficiency: 0.5,
		}
	}
	return core.ResilienceConfig{
		Nodes: 8, WorkFlops: 4e10, CheckpointBytes: 512 << 20,
		HaloBytes: 256 << 10, Efficiency: 0.5,
	}
}

// resilienceHorizon bounds generated crash times: the slowest
// platform's failure-free work time with generous rework headroom.
func resilienceHorizon(ps []*platform.Platform, cfg core.ResilienceConfig) float64 {
	maxWork := 0.0
	for _, p := range ps {
		if w := cfg.WorkFlops / p.SustainedFlops(true, cfg.Efficiency); w > maxWork {
			maxWork = w
		}
	}
	return 16 * maxWork
}

// faultCase is one row group of the sweep: a named schedule plus the
// checkpoint intervals to run it against.
type faultCase struct {
	label     string
	resolved  *fault.Resolved // nil means failure-free
	intervals []float64
}

// resolveGrid builds the default failure-rate grid, or — when the user
// supplied a schedule via Options.Fault — that single schedule.
func resolveGrid(o Options, ps []*platform.Platform, cfg core.ResilienceConfig) ([]faultCase, error) {
	horizon := resilienceHorizon(ps, cfg)
	intervals := []float64{5, 20, 80}
	mtbfs := []float64{120, 480}
	downtime := 30.0
	if o.Quick {
		intervals = []float64{0.5, 2, 8}
		mtbfs = []float64{10, 40}
		downtime = 2
	}
	if o.Fault != nil {
		r, err := o.Fault.Resolve(cfg.Nodes, horizon)
		if err != nil {
			return nil, err
		}
		iv := intervals
		if o.Fault.CheckpointIntervalSeconds > 0 {
			iv = []float64{o.Fault.CheckpointIntervalSeconds}
		}
		label := o.Fault.Name
		if label == "" {
			label = "user schedule"
		}
		return []faultCase{{label: label, resolved: r, intervals: iv}}, nil
	}
	cases := []faultCase{{label: "failure-free", intervals: intervals}}
	for _, m := range mtbfs {
		spec := &fault.Spec{
			Name:            fmt.Sprintf("mtbf=%gs", m),
			Seed:            o.Seed ^ resilienceSeed,
			MTBFSeconds:     m,
			HorizonSeconds:  horizon,
			DowntimeSeconds: downtime,
		}
		r, err := spec.Resolve(cfg.Nodes, 0)
		if err != nil {
			return nil, err
		}
		cases = append(cases, faultCase{label: spec.Name, resolved: r, intervals: intervals})
	}
	return cases, nil
}

func runResilienceSweep(w io.Writer, o Options) error {
	ps, err := sweepPlatforms(o)
	if err != nil {
		return err
	}
	cfg := resilienceConfig(o)
	cases, err := resolveGrid(o, ps, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Checkpointing mini-app on %d platforms, %d nodes each (one rank per node)\n",
		len(ps), cfg.Nodes)
	fmt.Fprintln(w, "Per-node MTBF draws crashes from seeded exponential interarrivals; downtime is")
	fmt.Fprintln(w, "frozen (idle watts), checkpoint and restart I/O run at memory watts.")

	cols := platformCols(ps)
	tts := &report.Matrix{
		Title:  "time to solution (s)",
		Corner: "schedule x tau \\ platform",
		Cols:   cols,
	}
	ets := &report.Matrix{
		Title:  "energy to solution (J, state-resolved profiles)",
		Corner: "schedule x tau \\ platform",
		Cols:   cols,
	}
	crashes := &report.Matrix{
		Title:  "interrupting crashes over the run",
		Corner: "schedule x tau \\ platform",
		Cols:   cols,
	}
	for _, fc := range cases {
		for _, interval := range fc.intervals {
			c := cfg
			c.IntervalSeconds = interval
			c.Faults = fc.resolved
			label := fmt.Sprintf("%s tau=%gs", fc.label, interval)
			tRow := make([]interface{}, len(ps))
			eRow := make([]interface{}, len(ps))
			cRow := make([]interface{}, len(ps))
			for i, p := range ps {
				rr, err := core.RunResilienceProbe(p, c)
				if err != nil {
					return err
				}
				tRow[i] = rr.Seconds
				eRow[i] = rr.Breakdown.Total
				cRow[i] = rr.Crashes
			}
			tts.AddRow(label, tRow...)
			ets.AddRow(label, eRow...)
			crashes.AddRow(label, cRow...)
		}
	}
	fmt.Fprint(w, tts.String())
	fmt.Fprint(w, ets.String())
	fmt.Fprint(w, crashes.String())
	fmt.Fprintln(w, "Short intervals buy little rework at a steep I/O cost; long intervals pay a")
	fmt.Fprintln(w, "full interval of lost work per crash. Slow nodes sit in the failure window")
	fmt.Fprintln(w, "longer, so the same per-node MTBF costs them disproportionally more — the")
	fmt.Fprintln(w, "low-power cluster's many-node bet has a resilience bill attached.")
	return nil
}

func runResilienceDaly(w io.Writer, o Options) error {
	ps, err := sweepPlatforms(o)
	if err != nil {
		return err
	}
	cfg := resilienceConfig(o)
	mtbf, downtime := 480.0, 30.0
	if o.Quick {
		mtbf, downtime = 20.0, 2.0
	}
	horizon := resilienceHorizon(ps, cfg)
	spec := &fault.Spec{
		Seed:            o.Seed ^ resilienceSeed,
		MTBFSeconds:     mtbf,
		HorizonSeconds:  horizon,
		DowntimeSeconds: downtime,
	}
	if o.Fault != nil {
		// A user schedule replaces the default one; its MTBF (when set)
		// also re-anchors the Daly optimum the scan brackets.
		spec = o.Fault
		if spec.MTBFSeconds > 0 {
			mtbf = spec.MTBFSeconds
		}
	}
	resolved, err := spec.Resolve(cfg.Nodes, horizon)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Per-node MTBF %gs on %d nodes -> system MTBF %gs; each platform checkpoints\n",
		mtbf, cfg.Nodes, mtbf/float64(cfg.Nodes))
	fmt.Fprintln(w, "around its own Daly-optimal interval (checkpoint cost = image / memory bandwidth).")

	multipliers := []float64{0.25, 0.5, 1, 2, 4}
	sysMTBF := mtbf / float64(cfg.Nodes)
	taus := make([]float64, len(ps))
	for i, p := range ps {
		tau, err := fault.DalyInterval(cfg.CheckpointSeconds(p), sysMTBF)
		if err != nil {
			return err
		}
		taus[i] = tau
	}

	results := make([][]core.ResilienceResult, len(ps))
	for i, p := range ps {
		results[i] = make([]core.ResilienceResult, len(multipliers))
		for j, mult := range multipliers {
			c := cfg
			c.IntervalSeconds = mult * taus[i]
			c.Faults = resolved
			if results[i][j], err = core.RunResilienceProbe(p, c); err != nil {
				return err
			}
		}
	}

	m := &report.Matrix{
		Title:  "time to solution (s) at multiples of the platform's Daly-optimal tau",
		Corner: "interval \\ platform",
		Cols:   platformCols(ps),
	}
	tauRow := make([]interface{}, len(ps))
	ckptRow := make([]interface{}, len(ps))
	for i := range ps {
		tauRow[i] = taus[i]
		ckptRow[i] = cfg.CheckpointSeconds(ps[i])
	}
	m.AddRow("checkpoint cost C (s)", ckptRow...)
	m.AddRow("tau_opt (s)", tauRow...)
	for j, mult := range multipliers {
		row := make([]interface{}, len(ps))
		for i := range ps {
			row[i] = results[i][j].Seconds
		}
		m.AddRow(fmt.Sprintf("%g x tau_opt", mult), row...)
	}
	fmt.Fprint(w, m.String())
	fmt.Fprintln(w, "Time to solution is flat-bottomed around tau_opt: over-checkpointing (0.25x)")
	fmt.Fprintln(w, "and under-checkpointing (4x) both lose, exactly as Daly's model predicts.")
	return nil
}
