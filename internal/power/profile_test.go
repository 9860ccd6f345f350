package power

import (
	"math"
	"strings"
	"testing"
)

var nan = math.NaN()

// tx2 is a non-uniform profile shaped like the ThunderX2 study
// (arXiv:2007.04868): idle and load diverge by more than 3x.
var tx2 = Profile{Name: "TX2", Idle: 55, Compute: 175, Memory: 150, Comm: 95}

func TestUniformIsTheConstantModel(t *testing.T) {
	p := Uniform("Snowball", 2.5)
	if !p.IsUniform() {
		t.Fatal("Uniform profile not reported uniform")
	}
	for _, s := range States() {
		if w := p.Watts(s); w != 2.5 {
			t.Errorf("Watts(%s) = %v, want 2.5", s, w)
		}
	}
	if e := p.Energy(10); e != 25 {
		t.Errorf("Energy(10) = %v, want 25", e)
	}
	if j := p.EnergyPerOp(2.5); j != 1 {
		t.Errorf("EnergyPerOp = %v, want 1", j)
	}
}

func TestProfileStates(t *testing.T) {
	want := map[State]float64{
		StateIdle: 55, StateCompute: 175, StateMemory: 150, StateComm: 95,
	}
	for s, w := range want {
		if got := tx2.Watts(s); got != w {
			t.Errorf("Watts(%s) = %v, want %v", s, got, w)
		}
	}
	if tx2.IsUniform() {
		t.Error("non-uniform profile reported uniform")
	}
	// Whole-run accounting still charges the envelope (§III.C).
	if e := tx2.Energy(2); e != 350 {
		t.Errorf("Energy(2) = %v, want 350", e)
	}
	if State(99).String() != "State(99)" {
		t.Errorf("unknown state string = %q", State(99))
	}
}

func TestProfileValidate(t *testing.T) {
	if err := tx2.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	if err := Uniform("ok", 5).Validate(); err != nil {
		t.Errorf("uniform profile rejected: %v", err)
	}
	bad := []Profile{
		{Name: "zero", Idle: 0, Compute: 5, Memory: 5, Comm: 5},
		{Name: "neg", Idle: 1, Compute: -5, Memory: 5, Comm: 5},
		{Name: "inverted", Idle: 10, Compute: 5, Memory: 12, Comm: 12},
		{Name: "huge", Idle: 1e308, Compute: 1e308, Memory: 1e308, Comm: 1e308},
		{Name: "tiny", Idle: 1e-300, Compute: 5, Memory: 5, Comm: 5},
		{Name: "nan", Idle: 1, Compute: 5, Memory: nan, Comm: 5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %s validated", p.Name)
		}
	}
}

func TestProfileString(t *testing.T) {
	if s := Uniform("Xeon", 95).String(); s != "Xeon(95.0W)" {
		t.Errorf("uniform String = %q", s)
	}
	s := tx2.String()
	for _, frag := range []string{"TX2", "idle 55.0W", "compute 175.0W", "mem 150.0W", "comm 95.0W"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String = %q, missing %q", s, frag)
		}
	}
}
