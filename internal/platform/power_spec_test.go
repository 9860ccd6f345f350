package platform

import (
	"encoding/json"
	"strings"
	"testing"

	"montblanc/internal/power"
)

// Every builtin's power section must round-trip through the Spec JSON
// wire form: the same profile comes back, bit for bit.
func TestPowerSectionJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, ok := LookupSpec(name)
		if !ok {
			t.Fatalf("builtin %s vanished", name)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if got, want := back.Profile(), s.Profile(); got != want {
			t.Errorf("%s: profile round trip = %+v, want %+v", name, got, want)
		}
		if (s.Power == nil) != (back.Power == nil) {
			t.Errorf("%s: power section presence changed across round trip", name)
		}
	}
}

// A typo inside the power section must fail loudly, exactly like a typo
// at the top level of a spec.
func TestPowerSectionRejectsUnknownFields(t *testing.T) {
	js := `{
		"name": "Typo", "cpu": {"name": "c", "clock_hz": 1e9, "flops_per_cycle_sp": 1,
		"flops_per_cycle_dp": 1, "int_ipc": 1},
		"cores": 1, "isa": "armv7", "ram_bytes": 1073741824, "watts": 5,
		"mem_bandwidth": 1e9, "mem_latency_cycles": 100,
		"caches": [{"name": "L1", "level": 1, "size": 32768, "line_size": 32,
		"associativity": 4, "hit_latency": 4}],
		"power": {"idle_watts": 1, "memory_watts": 4, "com_watts": 3}
	}`
	var s Spec
	err := json.Unmarshal([]byte(js), &s)
	if err == nil {
		t.Fatal("power section with unknown field decoded")
	}
	if !strings.Contains(err.Error(), "com_watts") {
		t.Errorf("error does not name the offending field: %v", err)
	}
}

// The compute draw and the legacy watts envelope are one quantity; a
// power section that disagrees with the envelope is rejected rather
// than silently picking one of the two.
func TestPowerSectionValidation(t *testing.T) {
	base := snowballSpec()

	conflicting := base.clone()
	conflicting.Power = &PowerSpec{IdleWatts: 0.5, ComputeWatts: 99, MemoryWatts: 2, CommWatts: 1}
	if err := conflicting.Validate(); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Errorf("conflicting compute_watts: err = %v", err)
	}

	inverted := base.clone()
	inverted.Power = &PowerSpec{IdleWatts: 3, MemoryWatts: 2.2, CommWatts: 1.5}
	if err := inverted.Validate(); err == nil {
		t.Error("idle above active states validated")
	}

	missing := base.clone()
	missing.Power = &PowerSpec{IdleWatts: 0.5}
	if err := missing.Validate(); err == nil {
		t.Error("power section with zero active states validated")
	}

	explicit := base.clone()
	explicit.Power = &PowerSpec{IdleWatts: 0.5, ComputeWatts: 2.5, MemoryWatts: 2, CommWatts: 1}
	if err := explicit.Validate(); err != nil {
		t.Errorf("compute_watts equal to the envelope rejected: %v", err)
	}
	if got := explicit.Profile().Compute; got != 2.5 {
		t.Errorf("explicit compute = %v, want 2.5", got)
	}
}

// A spec without a power section is the paper's constant model: the
// built platform carries the uniform profile of its envelope, and every
// energy figure reduces to envelope x time.
func TestSpecWithoutPowerSectionIsUniform(t *testing.T) {
	for _, name := range Names() {
		s, _ := LookupSpec(name)
		s.Power = nil
		p, err := s.Build()
		if err != nil {
			t.Fatalf("%s: build without power section: %v", name, err)
		}
		if !p.Power.IsUniform() {
			t.Errorf("%s: profile without power section not uniform: %+v", name, p.Power)
		}
		if p.Power != power.Uniform(s.powerName(), s.Watts) {
			t.Errorf("%s: profile = %+v, want Uniform(%q, %g)",
				name, p.Power, s.powerName(), s.Watts)
		}
	}
}

// Uniform-profile ≡ constant-model equivalence on every builtin: the
// state-resolved machinery charges exactly the paper's numbers when the
// profile is uniform, whatever the state mix.
func TestUniformProfileReproducesConstantModelOnBuiltins(t *testing.T) {
	const seconds = 17.25
	for _, name := range Names() {
		s, _ := LookupSpec(name)
		p, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		// Whole-run accounting always charges the envelope, profiled or
		// not — sweep-energy's numbers cannot move.
		if got, want := p.Power.Energy(seconds), s.Watts*seconds; got != want {
			t.Errorf("%s: Energy = %v, want envelope charge %v", name, got, want)
		}
		if got, want := p.Power.EnergyPerOp(100), s.Watts/100; got != want {
			t.Errorf("%s: EnergyPerOp = %v, want %v", name, got, want)
		}
		uni := power.Uniform(s.powerName(), s.Watts)
		for _, st := range power.States() {
			if got := uni.Watts(st); got != s.Watts {
				t.Errorf("%s: uniform Watts(%s) = %v, want %v", name, st, got, s.Watts)
			}
		}
	}
}

// Every builtin's calibrated profile is internally consistent and keeps
// the compute draw on the documented envelope.
func TestBuiltinProfilesCalibrated(t *testing.T) {
	for _, name := range Names() {
		s, _ := LookupSpec(name)
		if s.Power == nil {
			t.Errorf("builtin %s has no calibrated power section", name)
			continue
		}
		p, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Power.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Power.IsUniform() {
			t.Errorf("%s: calibrated profile is uniform", name)
		}
		if p.Power.Compute != s.Watts {
			t.Errorf("%s: compute %g W off the envelope %g W", name, p.Power.Compute, s.Watts)
		}
	}
	// The ThunderX2 study's headline: idle and load diverge by > 3x.
	tx2, _ := LookupSpec("ThunderX2")
	if prof := tx2.Profile(); prof.Compute/prof.Idle <= 3 {
		t.Errorf("ThunderX2 load/idle = %g, want > 3 per arXiv:2007.04868",
			prof.Compute/prof.Idle)
	}
}

// The registry hands out deep copies of the power section: mutating a
// looked-up spec's profile must not write through.
func TestPowerSectionDeepCopied(t *testing.T) {
	s, _ := LookupSpec("Snowball")
	if s.Power == nil {
		t.Fatal("Snowball has no power section")
	}
	s.Power.IdleWatts = 999
	again, _ := LookupSpec("Snowball")
	if again.Power.IdleWatts == 999 {
		t.Error("registry power section mutated through a looked-up copy")
	}
}
