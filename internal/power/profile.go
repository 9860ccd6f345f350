package power

import "fmt"

// State classifies what a machine is doing for power accounting. The
// follow-on measurement work the reproduction tracks (arXiv:1410.3440,
// arXiv:2007.04868) shows real platforms draw very different power in
// different execution phases — idle vs. load diverges by more than 3x
// on a ThunderX2 node — so energy integration is per-state, not one
// constant envelope.
type State int

// Accounting states, in rendering order.
const (
	StateIdle State = iota
	StateCompute
	StateMemory
	StateComm
)

// States returns every accounting state in rendering order.
func States() []State {
	return []State{StateIdle, StateCompute, StateMemory, StateComm}
}

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateCompute:
		return "compute"
	case StateMemory:
		return "memory"
	case StateComm:
		return "communication"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Profile is a state-resolved power model for one platform: the watts
// drawn while idle, under full compute load, in memory-bound phases and
// during communication. The paper's deliberately conservative constant
// model (§III.C) is the uniform special case — every state charged the
// full envelope — so profile-based accounting reduces exactly to the
// paper's numbers when a profile is uniform, and whole-run accounting
// (Energy, EnergyPerOp) always charges the Compute envelope to preserve
// the §III.C convention.
type Profile struct {
	Name string
	// Idle is the floor: the machine powered on, doing nothing.
	Idle float64
	// Compute is the full-load draw — the paper's constant envelope
	// (2.5 W Snowball USB budget, 95 W Xeon TDP).
	Compute float64
	// Memory is the draw of memory-bound phases: cores stalled on DRAM,
	// the memory system active.
	Memory float64
	// Comm is the draw while blocked in or driving communication.
	Comm float64
}

// Uniform returns the constant-power profile of the paper's §III.C
// model: every state charged the same watts.
func Uniform(name string, watts float64) Profile {
	return Profile{Name: name, Idle: watts, Compute: watts, Memory: watts, Comm: watts}
}

// IsUniform reports whether every state draws the same power — the
// profile is exactly the paper's constant model.
func (p Profile) IsUniform() bool {
	return p.Idle == p.Compute && p.Memory == p.Compute && p.Comm == p.Compute
}

// Watts returns the draw in the given state.
func (p Profile) Watts(s State) float64 {
	switch s {
	case StateIdle:
		return p.Idle
	case StateMemory:
		return p.Memory
	case StateComm:
		return p.Comm
	default:
		return p.Compute
	}
}

// Energy returns the joules to run for the given seconds under the
// paper's conservative whole-run accounting: the full Compute envelope
// for the entire duration, whatever the phase mix. Phase-resolved
// integration lives in trace.EnergyByState.
func (p Profile) Energy(seconds float64) float64 { return p.Compute * seconds }

// EnergyPerOp returns joules per unit of work given a rate in ops/s,
// charged at the Compute envelope like Energy.
func (p Profile) EnergyPerOp(opsPerSecond float64) float64 {
	if opsPerSecond <= 0 {
		return 0
	}
	return p.Compute / opsPerSecond
}

// MinWatts and MaxWatts bound every state's draw: from a milliwatt
// sensor node to a megawatt, far beyond any single machine, so that
// energies and their ratios over any simulated run stay finite.
const (
	MinWatts = 1e-3
	MaxWatts = 1e6
)

// Validate checks the profile: every state must draw between MinWatts
// and MaxWatts, and idle must not exceed any active state — an inverted
// profile is almost certainly a transposed spec file.
func (p Profile) Validate() error {
	for _, s := range States() {
		if w := p.Watts(s); !(w >= MinWatts && w <= MaxWatts) {
			return fmt.Errorf("power: profile %s: %s power %g W outside [%g, %g]", p.Name, s, w, MinWatts, MaxWatts)
		}
	}
	for _, s := range []State{StateCompute, StateMemory, StateComm} {
		if p.Idle > p.Watts(s) {
			return fmt.Errorf("power: profile %s: idle %g W exceeds %s %g W",
				p.Name, p.Idle, s, p.Watts(s))
		}
	}
	return nil
}

// String describes the profile; the uniform case keeps the historical
// constant-model form.
func (p Profile) String() string {
	if p.IsUniform() {
		return fmt.Sprintf("%s(%.1fW)", p.Name, p.Compute)
	}
	return fmt.Sprintf("%s(idle %.1fW / compute %.1fW / mem %.1fW / comm %.1fW)",
		p.Name, p.Idle, p.Compute, p.Memory, p.Comm)
}
