package experiments

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"montblanc/internal/core"
	"montblanc/internal/fault"
	"montblanc/internal/platform"
)

// The resilience quick outputs are pinned like the figures: fault
// schedules are seeded data, so the same request must render the same
// matrices forever.
func TestResilienceQuickOutputGolden(t *testing.T) {
	for _, id := range []string{"resilience-sweep", "resilience-daly"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", id+"_quick.golden"), buf.Bytes())
		})
	}
}

// A user-supplied schedule replaces the built-in failure grid, and its
// pinned checkpoint interval replaces the interval grid.
func TestResilienceSweepHonorsUserFault(t *testing.T) {
	e, _ := Find("resilience-sweep")
	var buf bytes.Buffer
	o := Options{
		Quick:     true,
		Platforms: []string{"Tegra2"},
		Fault: &fault.Spec{
			Name: "maintenance window", DowntimeSeconds: 1,
			Events:                    []fault.Event{{Node: 1, Time: 3}},
			CheckpointIntervalSeconds: 1.5,
		},
	}
	if err := e.Run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "maintenance window tau=1.5s") {
		t.Errorf("user schedule row missing:\n%s", out)
	}
	if strings.Contains(out, "mtbf=") || strings.Contains(out, "failure-free") {
		t.Errorf("default grid still present alongside user schedule:\n%s", out)
	}
}

func TestResilienceExperimentsRejectBadFault(t *testing.T) {
	for _, id := range []string{"resilience-sweep", "resilience-daly"} {
		e, _ := Find(id)
		var buf bytes.Buffer
		o := Options{Quick: true, Fault: &fault.Spec{MTBFSeconds: math.NaN()}}
		if err := e.Run(&buf, o); err == nil {
			t.Errorf("%s accepted NaN MTBF", id)
		}
	}
}

// The fault schedule is cache-key material: a fault-injected request
// must never replay a failure-free run's cached bytes.
func TestCacheKeyDiscriminatesFault(t *testing.T) {
	base := Options{Quick: true, Platforms: []string{"Tegra2"}}
	k := mustKey(t, "resilience-sweep", base)

	injected := base
	injected.Fault = &fault.Spec{MTBFSeconds: 100, HorizonSeconds: 1000}
	ki := mustKey(t, "resilience-sweep", injected)
	if ki == k {
		t.Error("fault-injected request keyed like the failure-free one")
	}

	tweaked := base
	tweaked.Fault = &fault.Spec{MTBFSeconds: 200, HorizonSeconds: 1000}
	if mustKey(t, "resilience-sweep", tweaked) == ki {
		t.Error("different fault schedules, same key")
	}
}

func TestCacheKeyRejectsInvalidFault(t *testing.T) {
	o := Options{Quick: true, Fault: &fault.Spec{MTBFSeconds: -1}}
	if _, err := CacheKey("resilience-sweep", o); err == nil {
		t.Error("invalid fault spec keyed successfully")
	}
}

// The acceptance shape: on a robust full-size configuration the
// measured time to solution bottoms out near the Daly-optimal
// interval — far from it in either direction costs real time.
func TestDalyOptimumShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size Daly scan in -short mode")
	}
	p := platform.MustLookup("Tegra2")
	cfg := core.ResilienceConfig{
		Nodes: 4, WorkFlops: 4e10, CheckpointBytes: 512 << 20,
		HaloBytes: 256 << 10, Efficiency: 0.5,
	}
	mtbf := 240.0 // per node; system MTBF 60s over ~115s of work
	tau, err := fault.DalyInterval(cfg.CheckpointSeconds(p), mtbf/float64(cfg.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{Seed: 5, MTBFSeconds: mtbf, HorizonSeconds: 4000, DowntimeSeconds: 10}
	resolved, err := spec.Resolve(cfg.Nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	multipliers := []float64{0.0625, 0.25, 0.5, 1, 2, 4, 16}
	tts := make([]float64, len(multipliers))
	for i, mult := range multipliers {
		c := cfg
		c.IntervalSeconds = mult * tau
		c.Faults = resolved
		rr, err := core.RunResilienceProbe(p, c)
		if err != nil {
			t.Fatal(err)
		}
		tts[i] = rr.Seconds
	}
	best := 0
	for i := range tts {
		if tts[i] < tts[best] {
			best = i
		}
	}
	if m := multipliers[best]; m < 0.25 || m > 4 {
		t.Errorf("TTS minimized at %g x tau_opt (%v), want within [0.25, 4]; curve %v",
			m, tts[best], tts)
	}
	// The extremes must pay: far over- and under-checkpointing are both
	// strictly worse than the Daly interval itself.
	if tts[0] <= tts[3] {
		t.Errorf("0.0625 x tau_opt (%v) not worse than tau_opt (%v)", tts[0], tts[3])
	}
	if tts[len(tts)-1] <= tts[3] {
		t.Errorf("16 x tau_opt (%v) not worse than tau_opt (%v)", tts[len(tts)-1], tts[3])
	}
}
