package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"montblanc/internal/fault"
	"montblanc/internal/platform"
	"montblanc/internal/power"
)

func quickResilience() ResilienceConfig {
	return ResilienceConfig{
		Nodes:           4,
		WorkFlops:       4e9,
		CheckpointBytes: 32 << 20,
		IntervalSeconds: 1,
		HaloBytes:       64 << 10,
	}
}

func resolveFor(t *testing.T, s *fault.Spec, nodes int, hint float64) *fault.Resolved {
	t.Helper()
	r, err := s.Resolve(nodes, hint)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResilienceProbeFailureFree(t *testing.T) {
	rr, err := RunResilienceProbe(platform.MustLookup("Tegra2"), quickResilience())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Seconds <= 0 {
		t.Fatal("probe ran for no time")
	}
	if rr.Crashes != 0 || rr.DownSeconds != 0 {
		t.Fatalf("failure-free run reported faults: %d crashes, %v down", rr.Crashes, rr.DownSeconds)
	}
	if rr.Checkpoints <= 0 {
		t.Fatalf("want some checkpoints, got %d", rr.Checkpoints)
	}
	if rr.Breakdown.Joules(power.StateMemory) <= 0 {
		t.Fatal("checkpoint I/O drew no memory-state energy")
	}
	if rr.Breakdown.Joules(power.StateCompute) <= 0 {
		t.Fatal("work drew no compute-state energy")
	}
}

func TestResilienceProbeCrashStretchesRun(t *testing.T) {
	p := platform.MustLookup("Tegra2")
	cfg := quickResilience()
	clean, err := RunResilienceProbe(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One crash in the middle of the run on node 1.
	spec := &fault.Spec{
		DowntimeSeconds: 5,
		Events:          []fault.Event{{Node: 1, Time: clean.Seconds / 2}},
	}
	cfg.Faults = resolveFor(t, spec, cfg.Nodes, 0)
	faulty, err := RunResilienceProbe(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", faulty.Crashes)
	}
	if faulty.DownSeconds <= 0 {
		t.Fatal("crash froze no time")
	}
	// The crash costs at least the downtime: lost work and restart I/O
	// come on top, and the ring drags every rank along.
	if faulty.Seconds < clean.Seconds+5 {
		t.Fatalf("crashed run %v not slower than clean %v + 5s downtime",
			faulty.Seconds, clean.Seconds)
	}
	if faulty.Breakdown.Total <= clean.Breakdown.Total {
		t.Fatalf("crashed run drew %v J, clean %v J — resilience came free",
			faulty.Breakdown.Total, clean.Breakdown.Total)
	}
}

// One resolved fault schedule drives every run it is given to: the
// probe applies it to a fresh fabric each time, so a second run with
// the same schedule reproduces the first exactly.
func TestResilienceProbeDeterministic(t *testing.T) {
	p := platform.MustLookup("Snowball")
	cfg := quickResilience()
	spec := &fault.Spec{Seed: 3, MTBFSeconds: 20, HorizonSeconds: 200, DowntimeSeconds: 2}
	cfg.Faults = resolveFor(t, spec, cfg.Nodes, 0)
	base, err := RunResilienceProbe(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Crashes == 0 {
		t.Fatal("the schedule never crashed a node")
	}
	got, err := RunResilienceProbe(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != base.Seconds || !reflect.DeepEqual(got.Breakdown, base.Breakdown) ||
		got.Crashes != base.Crashes || got.DownSeconds != base.DownSeconds {
		t.Fatal("second run of the fault-injected probe differs from the first")
	}
}

func TestResilienceProbeHostileInputs(t *testing.T) {
	p := platform.MustLookup("Tegra2")
	cases := []struct {
		name string
		mut  func(*ResilienceConfig)
	}{
		{"nan interval", func(c *ResilienceConfig) { c.IntervalSeconds = math.NaN() }},
		{"inf interval", func(c *ResilienceConfig) { c.IntervalSeconds = math.Inf(1) }},
		{"nan work", func(c *ResilienceConfig) { c.WorkFlops = math.NaN() }},
		{"nan checkpoint bytes", func(c *ResilienceConfig) { c.CheckpointBytes = math.NaN() }},
		{"nan efficiency", func(c *ResilienceConfig) { c.Efficiency = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickResilience()
			tc.mut(&cfg)
			if _, err := RunResilienceProbe(p, cfg); err == nil {
				t.Fatal("hostile config accepted")
			}
		})
	}
}

// The segment count is bounded before anything is simulated: a tiny
// interval (ceil(work / interval) past maxSegments) and a vanishing flop
// rate (work / interval past the int range, which a float-to-int
// conversion would wrap into one segment) are refused, naming the
// interval.
func TestResilienceProbeBoundsSegments(t *testing.T) {
	slow, ok := platform.LookupSpec("Exynos5Dual")
	if !ok {
		t.Fatal("builtin Exynos5Dual missing")
	}
	slow.Name = "Hostile"
	slow.CPU.FlopsPerCycleDP = 1e-300
	hostile, err := slow.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		p        *platform.Platform
		interval float64
		want     string
	}{
		{"tiny interval", platform.MustLookup("Tegra2"), 1e-7, "checkpoint interval 1e-07s"},
		{"vanishing flop rate", hostile, 0.5, "checkpoint interval 0.5s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickResilience()
			cfg.IntervalSeconds = tc.interval
			_, err := RunResilienceProbe(tc.p, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %q, got %v", tc.want, err)
			}
		})
	}
}

func TestResilienceProbeRejectsMismatchedSchedule(t *testing.T) {
	cfg := quickResilience()
	cfg.Faults = resolveFor(t, &fault.Spec{}, 16, 0) // resolved for 16 nodes, probe has 4
	_, err := RunResilienceProbe(platform.MustLookup("Tegra2"), cfg)
	if err == nil || !strings.Contains(err.Error(), "resolved for 16 nodes") {
		t.Fatalf("want shape-mismatch error, got %v", err)
	}
}

func TestResilienceProbeRejectsTinyJobs(t *testing.T) {
	cfg := quickResilience()
	cfg.Nodes = 1
	if _, err := RunResilienceProbe(platform.MustLookup("Tegra2"), cfg); err == nil {
		t.Fatal("single-node probe did not error")
	}
}

// Shorter checkpoint intervals mean more checkpoint I/O; under a fixed
// crash load, longer intervals mean more lost work per crash. Both
// extremes must cost more than a middle interval on a schedule dense
// enough to matter — the shape the Daly optimum formalizes.
func TestResilienceIntervalTradeoff(t *testing.T) {
	p := platform.MustLookup("Tegra2")
	base := quickResilience()
	// Enough work per rank that a node rarely survives the whole job
	// without a crash: without checkpoints, rework dominates.
	base.WorkFlops = 6e10
	base.CheckpointBytes = 128 << 20

	tts := func(interval float64) float64 {
		cfg := base
		cfg.IntervalSeconds = interval
		// A fixed, dense crash schedule over a generous horizon.
		cfg.Faults = resolveFor(t, &fault.Spec{
			Seed: 11, MTBFSeconds: 60, HorizonSeconds: 20000, DowntimeSeconds: 5,
		}, cfg.Nodes, 0)
		rr, err := RunResilienceProbe(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Seconds
	}
	// The checkpoint cost on Tegra2 sets the scale for "too short".
	c := base.CheckpointSeconds(p)
	tiny := tts(c / 16) // checkpointing dominates
	huge := tts(1e6)    // one interval: every crash loses everything
	mid := tts(8 * c)   // in between
	if mid >= tiny {
		t.Errorf("interval %vs (%v) not faster than checkpoint-dominated %vs (%v)",
			8*c, mid, c/16, tiny)
	}
	if mid >= huge {
		t.Errorf("interval %vs (%v) not faster than rework-dominated (%v)", 8*c, mid, huge)
	}
}
