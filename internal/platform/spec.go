package platform

import (
	"bytes"
	"encoding/json"
	"fmt"

	"montblanc/internal/cache"
	"montblanc/internal/cpu"
	"montblanc/internal/power"
)

// Spec is the serializable description of a Platform: everything a
// Platform carries, as plain data. A Spec round-trips through JSON, so
// machines can be defined in files (see LoadSpecFile) as well as in
// code, and the built-in platforms are themselves registered Specs
// (builtin.go). Build constructs a fresh *Platform; every build returns
// an independent value, so callers may mutate the result freely.
type Spec struct {
	Name  string    `json:"name"`
	CPU   cpu.Model `json:"cpu"`
	Cores int       `json:"cores"`
	ISA   ISA       `json:"isa"`

	// Accel is the integrated GPU, when present.
	Accel *Accelerator `json:"accel,omitempty"`

	RAMBytes int64 `json:"ram_bytes"`

	// PowerName overrides the power profile's name when it historically
	// differs from the platform name (e.g. the Xeon's envelope is named
	// "Xeon"); empty means the platform name.
	PowerName string `json:"power_name,omitempty"`
	// Watts is the constant envelope the paper accounts (§III.C): full
	// board power for the Snowball, full TDP for the Xeon. It doubles as
	// the profile's compute (full-load) draw.
	Watts float64 `json:"watts"`

	// Power is the optional state-resolved power section. Absent, the
	// machine gets the paper's uniform constant model: every state
	// charged the Watts envelope.
	Power *PowerSpec `json:"power,omitempty"`

	MemBandwidth     float64 `json:"mem_bandwidth"`
	MemLatencyCycles int     `json:"mem_latency_cycles"`

	Caches []cache.Config `json:"caches"`

	TLBEntries     int `json:"tlb_entries"`
	TLBMissPenalty int `json:"tlb_miss_penalty"`
}

// UnmarshalJSON decodes a spec, rejecting unknown fields and requiring
// an explicit "isa": the ISA zero value is armv7, and a 64-bit machine
// spec that omitted the field would otherwise silently register with
// the 32-bit emulation tax priced in — exactly the quiet mis-costing
// the fail-loudly parsing is meant to prevent.
func (s *Spec) UnmarshalJSON(b []byte) error {
	type bare Spec // no methods: avoids recursing into this unmarshaler
	aux := struct {
		*bare
		ISA *ISA `json:"isa"`
	}{bare: (*bare)(s)}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return err
	}
	if aux.ISA == nil {
		return fmt.Errorf("spec %q: missing \"isa\" field (armv7, x86_64 or aarch64)", s.Name)
	}
	s.ISA = *aux.ISA
	return nil
}

// PowerSpec is the serializable state-resolved power section of a
// Spec: the watts the machine draws while idle, in memory-bound phases
// and while communicating. The compute (full-load) draw defaults to the
// spec's Watts envelope; setting it to anything else is rejected so the
// two fields can never silently disagree. Calibration sources for the
// built-in machines are documented in PLATFORMS.md.
type PowerSpec struct {
	IdleWatts    float64 `json:"idle_watts"`
	ComputeWatts float64 `json:"compute_watts,omitempty"`
	MemoryWatts  float64 `json:"memory_watts"`
	CommWatts    float64 `json:"comm_watts"`
}

// clone returns a deep copy: the Caches slice and the Accel and Power
// pointers are duplicated, so neither side can mutate the other. The
// registry stores and hands out clones only — a caller tweaking a
// looked-up spec (the copy-builtin-and-edit pattern) must never write
// through into the registered machines.
func (s Spec) clone() Spec {
	s.Caches = append([]cache.Config(nil), s.Caches...)
	if s.Accel != nil {
		a := *s.Accel
		s.Accel = &a
	}
	if s.Power != nil {
		p := *s.Power
		s.Power = &p
	}
	return s
}

// powerName returns the name the built power.Profile carries.
func (s Spec) powerName() string {
	if s.PowerName != "" {
		return s.PowerName
	}
	return s.Name
}

// Profile resolves the spec's power model: the uniform constant
// envelope when no power section is given, the state-resolved profile
// otherwise (compute defaulting to the envelope).
func (s Spec) Profile() power.Profile {
	if s.Power == nil {
		return power.Uniform(s.powerName(), s.Watts)
	}
	cw := s.Power.ComputeWatts
	if cw == 0 {
		cw = s.Watts
	}
	return power.Profile{
		Name:    s.powerName(),
		Idle:    s.Power.IdleWatts,
		Compute: cw,
		Memory:  s.Power.MemoryWatts,
		Comm:    s.Power.CommWatts,
	}
}

// Build constructs a fresh Platform from the spec and validates it.
// Nothing is shared between builds: the CPU model, accelerator and
// cache slice are all copies, so experiments that mutate a platform
// (ablations, what-if studies) never contaminate the registry.
func (s Spec) Build() (*Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cpuCopy := s.CPU
	p := &Platform{
		Name:             s.Name,
		CPU:              &cpuCopy,
		Cores:            s.Cores,
		ISA:              s.ISA,
		RAMBytes:         s.RAMBytes,
		Power:            s.Profile(),
		MemBandwidth:     s.MemBandwidth,
		MemLatencyCycles: s.MemLatencyCycles,
		Caches:           append([]cache.Config(nil), s.Caches...),
		TLBEntries:       s.TLBEntries,
		TLBMissPenalty:   s.TLBMissPenalty,
	}
	if s.Accel != nil {
		a := *s.Accel
		p.Accel = &a
	}
	return p, nil
}

// Validate checks the spec without building it: the platform-level
// invariants plus the spec-only ones (a usable name, a known ISA, and
// the power envelope and section within power.MinWatts and
// power.MaxWatts).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("platform: spec with empty name")
	}
	if _, err := ParseISA(s.ISA.String()); err != nil {
		return fmt.Errorf("platform: spec %s: %w", s.Name, err)
	}
	watts := []bound{{"watts", s.Watts, power.MinWatts, power.MaxWatts}}
	if s.Power != nil {
		watts = append(watts,
			bound{"power.idle_watts", s.Power.IdleWatts, power.MinWatts, power.MaxWatts},
			bound{"power.memory_watts", s.Power.MemoryWatts, power.MinWatts, power.MaxWatts},
			bound{"power.comm_watts", s.Power.CommWatts, power.MinWatts, power.MaxWatts})
	}
	if err := check(s.Name, watts); err != nil {
		return err
	}
	if s.Power != nil {
		if cw := s.Power.ComputeWatts; cw != 0 && cw != s.Watts {
			return fmt.Errorf("platform: spec %s: power section compute_watts %g conflicts with watts envelope %g",
				s.Name, cw, s.Watts)
		}
		if err := s.Profile().Validate(); err != nil {
			return fmt.Errorf("platform: spec %s: %w", s.Name, err)
		}
	}
	cpuCopy := s.CPU
	probe := Platform{
		Name:             s.Name,
		CPU:              &cpuCopy,
		Cores:            s.Cores,
		ISA:              s.ISA,
		Accel:            s.Accel,
		RAMBytes:         s.RAMBytes,
		MemBandwidth:     s.MemBandwidth,
		MemLatencyCycles: s.MemLatencyCycles,
		Caches:           s.Caches,
		TLBEntries:       s.TLBEntries,
		TLBMissPenalty:   s.TLBMissPenalty,
	}
	return probe.Validate()
}
