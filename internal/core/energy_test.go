package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"montblanc/internal/platform"
	"montblanc/internal/power"
)

func TestRefIndexErrorsOnAbsentReference(t *testing.T) {
	s := &Sweep{Platforms: []*platform.Platform{
		platform.MustLookup("Snowball"), platform.MustLookup("Tegra2"),
	}}
	i, err := s.RefIndex("Snowball")
	if err != nil || i != 0 {
		t.Errorf("RefIndex(Snowball) = %d, %v", i, err)
	}
	i, err = s.RefIndex("Tegra2")
	if err != nil || i != 1 {
		t.Errorf("RefIndex(Tegra2) = %d, %v", i, err)
	}
	// The historical bug: a typo'd name silently anchored ratios on
	// index 0. It must error now, naming the swept set.
	_, err = s.RefIndex("XeonX5500") // typo of XeonX5550
	if !errors.Is(err, ErrNoReference) {
		t.Fatalf("typo'd reference: err = %v, want ErrNoReference", err)
	}
	for _, frag := range []string{"XeonX5500", "Snowball", "Tegra2"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func quickProbe() PhaseProbeConfig {
	return PhaseProbeConfig{Nodes: 4, Iters: 3, FlopsPerIter: 5e8, SweepBytes: 8 << 20}
}

func TestPhaseProbeAccountsEveryState(t *testing.T) {
	pe, err := RunPhaseProbe(platform.MustLookup("ThunderX2"), quickProbe())
	if err != nil {
		t.Fatal(err)
	}
	if pe.Seconds <= 0 {
		t.Fatal("probe ran for no time")
	}
	b := pe.Breakdown
	for _, st := range []power.State{power.StateCompute, power.StateMemory, power.StateComm} {
		if b.Joules(st) <= 0 {
			t.Errorf("%s joules = %v, want > 0", st, b.Joules(st))
		}
	}
	// The profiled total can never exceed the §III.C envelope charge:
	// compute is the most expensive state.
	if b.Total > pe.EnvelopeJoules+1e-9 {
		t.Errorf("profiled total %v exceeds envelope charge %v", b.Total, pe.EnvelopeJoules)
	}
	// Rank-seconds must cover the whole horizon for every rank.
	var covered float64
	for _, s := range b.SecondsByState {
		covered += s
	}
	if want := pe.Seconds * 4; math.Abs(covered-want) > 1e-9*want {
		t.Errorf("state seconds cover %v, want %v", covered, want)
	}
}

// A platform stripped to a uniform profile must reproduce the constant
// model exactly: total joules == nodes x envelope x makespan.
func TestPhaseProbeUniformReducesToEnvelope(t *testing.T) {
	p := platform.MustLookup("Snowball")
	p.Power = power.Uniform(p.Power.Name, p.Power.Compute)
	pe, err := RunPhaseProbe(p, quickProbe())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe.Breakdown.Total-pe.EnvelopeJoules) > 1e-9*pe.EnvelopeJoules {
		t.Errorf("uniform profile: total %v != envelope charge %v",
			pe.Breakdown.Total, pe.EnvelopeJoules)
	}
}

func TestPhaseProbeRejectsTinyJobs(t *testing.T) {
	if _, err := RunPhaseProbe(platform.MustLookup("Snowball"),
		PhaseProbeConfig{Nodes: 1}); err == nil {
		t.Error("single-node probe did not error")
	}
}

// Imbalance zero means balanced — withDefaults must not quietly skew
// the job. A balanced ring is perfectly symmetric: every rank draws the
// same joules, and adding imbalance stretches the makespan.
func TestPhaseProbeImbalanceZeroHonored(t *testing.T) {
	p := platform.MustLookup("Snowball")
	balanced, err := RunPhaseProbe(p, quickProbe()) // Imbalance: 0
	if err != nil {
		t.Fatal(err)
	}
	for r, j := range balanced.Breakdown.ByRank[1:] {
		if math.Abs(j-balanced.Breakdown.ByRank[0]) > 1e-9 {
			t.Errorf("balanced probe rank %d = %v J, rank 0 = %v J",
				r+1, j, balanced.Breakdown.ByRank[0])
		}
	}
	skewed := quickProbe()
	skewed.Imbalance = 0.3
	straggled, err := RunPhaseProbe(p, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if straggled.Seconds <= balanced.Seconds {
		t.Errorf("imbalance did not stretch the makespan: %v vs %v",
			straggled.Seconds, balanced.Seconds)
	}
}
