package platform

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"montblanc/internal/cache"
	"montblanc/internal/units"
)

// uniqueName returns a registry name unique across the whole process,
// including repeated in-process runs (`go test -count=N`): registration
// is global and permanent, so fixed test names would collide with their
// own earlier run.
var nameCounter atomic.Int64

func uniqueName(t *testing.T, prefix string) string {
	t.Helper()
	return fmt.Sprintf("%s-%s-%d", prefix, t.Name(), nameCounter.Add(1))
}

func TestNamesContainBuiltins(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	for _, want := range []string{
		"Snowball", "XeonX5550", "Exynos5Dual", "Tegra2", "MontBlancNode", "ThunderX2",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() missing builtin %q: %v", want, names)
		}
	}
	if len(names) < 6 {
		t.Errorf("%d registered platforms, want >= 6", len(names))
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	err := Register(snowballSpec())
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("re-registering Snowball: err = %v, want duplicate error", err)
	}
}

func TestUnknownLookupError(t *testing.T) {
	_, err := Lookup("Cray-1")
	if err == nil || !strings.Contains(err.Error(), "Cray-1") {
		t.Errorf("err = %v, want unknown-platform error naming Cray-1", err)
	}
}

// Lookup must hand out independent values: experiments mutate platforms
// (the spill ablation grows the register file) and must never
// contaminate the registry.
func TestLookupReturnsFreshValue(t *testing.T) {
	a := MustLookup("Snowball")
	a.CPU.Regs = [3]int{64, 64, 64}
	a.Caches[0].Size = 64 * units.KiB
	b := MustLookup("Snowball")
	if b.CPU.Regs == a.CPU.Regs {
		t.Error("CPU model shared between lookups")
	}
	if b.Caches[0].Size != 32*units.KiB {
		t.Error("cache config shared between lookups")
	}
}

// LookupSpec hands out deep copies: the copy-a-builtin-and-tweak
// pattern must never write through the shared Accel pointer or Caches
// backing array into the registered machine.
func TestLookupSpecReturnsDeepCopy(t *testing.T) {
	s, ok := LookupSpec("Exynos5Dual")
	if !ok {
		t.Fatal("Exynos5Dual spec missing")
	}
	s.Accel.PeakSPFlops = 1e15
	s.Caches[0].Size = 64 * units.KiB
	fresh, _ := LookupSpec("Exynos5Dual")
	if fresh.Accel.PeakSPFlops == 1e15 {
		t.Error("Accel mutation wrote through into the registry")
	}
	if fresh.Caches[0].Size != 32*units.KiB {
		t.Error("cache mutation wrote through into the registry")
	}
}

// The four paper platforms, built through the registry, must equal the
// spec-built values field for field — the byte-identical-output
// guarantee for every existing experiment rests on this.
func TestBuiltinSpecsBuildHistoricalPlatforms(t *testing.T) {
	if p := Snowball(); p.Power.Compute != 2.5 || p.Power.Name != "Snowball" ||
		p.CPU.Name != "A9500" || p.Cores != 2 || p.RAMBytes != 796*units.MiB {
		t.Errorf("Snowball drifted: %+v", p)
	}
	if p := XeonX5550(); p.Power.Name != "Xeon" || p.Power.Compute != 95 ||
		p.CPU.Name != "Nehalem" || len(p.Caches) != 3 {
		t.Errorf("XeonX5550 drifted: %+v", p)
	}
	if p := Exynos5Dual(); p.Power.Name != "Exynos5" || p.Accel == nil ||
		p.CPU.ClockHz != 1.7e9 || !p.CPU.OutOfOrder {
		t.Errorf("Exynos5Dual drifted: %+v", p)
	}
	if p := Tegra2Node(); p.Power.Name != "Tegra2Node" || p.Power.Compute != 8.5 ||
		p.CPU.Name != "Tegra2" {
		t.Errorf("Tegra2Node drifted: %+v", p)
	}
}

// Every builtin spec must survive a JSON round-trip and build an
// identical platform — the property that makes file-defined machines
// first-class citizens.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, name := range Names() {
		spec, ok := LookupSpec(name)
		if !ok {
			t.Fatalf("LookupSpec(%q) missing", name)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: spec round-trip drifted:\n  %+v\n  %+v", name, spec, back)
		}
		want, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		got, err := back.Build()
		if err != nil {
			t.Fatalf("%s: build after round-trip: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: built platform differs after JSON round-trip", name)
		}
	}
}

func TestSpecValidateRejections(t *testing.T) {
	base := snowballSpec()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero cores", func(s *Spec) { s.Cores = 0 }},
		{"no caches", func(s *Spec) { s.Caches = nil }},
		{"non-pow2 cache", func(s *Spec) { s.Caches[0].Size = 3000 }},
		{"zero watts", func(s *Spec) { s.Watts = 0 }},
		{"negative bandwidth", func(s *Spec) { s.MemBandwidth = -1 }},
		{"zero RAM", func(s *Spec) { s.RAMBytes = 0 }},
		{"bad ISA", func(s *Spec) { s.ISA = ISA(99) }},
		{"negative TLB", func(s *Spec) { s.TLBEntries = -1 }},
		{"zero clock", func(s *Spec) { s.CPU.ClockHz = 0 }},
	}
	for _, c := range cases {
		s := base
		s.Caches = append([]cache.Config(nil), base.Caches...)
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed spec", c.name)
		}
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build accepted malformed spec", c.name)
		}
		if err := Register(s); err == nil {
			t.Errorf("%s: Register accepted malformed spec", c.name)
		}
	}
}

// Every magnitude a model reads is bounded, so that no experiment on an
// accepted machine prints an infinite or NaN figure. Each case puts one
// field just outside its range and expects the error to name the field
// as spec files spell it. The first two are the hostile specs that used
// to be accepted: with a 1e-300 B/s memory, sweep-matrix printed +Inf
// SPECFEM3D times and energy-phases +Inf joules; with 1e308 W, the
// energy tables did.
func TestSpecMagnitudeBounds(t *testing.T) {
	base, ok := LookupSpec("Exynos5Dual")
	if !ok {
		t.Fatal("Exynos5Dual not registered")
	}
	if base.Accel == nil || base.Power == nil {
		t.Fatal("precondition: Exynos5Dual has an accelerator and a power section")
	}
	cases := []struct {
		field  string
		mutate func(*Spec)
	}{
		{"mem_bandwidth", func(s *Spec) { s.MemBandwidth = 1e-300 }},
		{"watts", func(s *Spec) {
			s.Watts = 1e308
			s.Power.IdleWatts, s.Power.MemoryWatts, s.Power.CommWatts = 1e308, 1e308, 1e308
		}},
		{"mem_bandwidth", func(s *Spec) { s.MemBandwidth = 1e16 }},
		{"mem_latency_cycles", func(s *Spec) { s.MemLatencyCycles = 0 }},
		{"mem_latency_cycles", func(s *Spec) { s.MemLatencyCycles = 2e6 }},
		{"ram_bytes", func(s *Spec) { s.RAMBytes = 1 << 10 }},
		{"ram_bytes", func(s *Spec) { s.RAMBytes = 1 << 50 }},
		{"cores", func(s *Spec) { s.Cores = 1 << 20 }},
		{"watts", func(s *Spec) { s.Watts = 1e-300 }},
		{"power.idle_watts", func(s *Spec) { s.Power.IdleWatts = 1e-300 }},
		{"power.memory_watts", func(s *Spec) { s.Power.MemoryWatts = 1e9 }},
		{"power.comm_watts", func(s *Spec) { s.Power.CommWatts = math.NaN() }},
		{"accel.peak_sp_flops", func(s *Spec) { s.Accel.PeakSPFlops = 1e300 }},
		{"accel.peak_dp_flops", func(s *Spec) { s.Accel.PeakDPFlops = -1 }},
		{"tlb_entries", func(s *Spec) { s.TLBEntries = 1 << 30 }},
		{"tlb_entries", func(s *Spec) { s.TLBEntries = -1 }},
		{"tlb_miss_penalty", func(s *Spec) { s.TLBMissPenalty = 1 << 30 }},
	}
	for _, tc := range cases {
		s := base.clone()
		s.Name = "Hostile"
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s out of range accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("%s out of range: error %q does not name the field", tc.field, err)
		}
	}
	for _, name := range Names() {
		spec, _ := LookupSpec(name)
		if err := spec.Validate(); err != nil {
			t.Errorf("built-in %s rejected: %v", name, err)
		}
	}
}

func writeTempSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSpecFileRegistersMachine(t *testing.T) {
	spec, _ := LookupSpec("Snowball")
	spec.Name = uniqueName(t, "TestBoard")
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	names, err := LoadSpecFile(writeTempSpec(t, string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != spec.Name {
		t.Fatalf("loaded names = %v", names)
	}
	p, err := Lookup(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPU.Name != "A9500" || p.Power.Compute != 2.5 {
		t.Errorf("file-defined machine drifted: %+v", p)
	}
}

func TestLoadSpecFileArrayForm(t *testing.T) {
	a, _ := LookupSpec("Tegra2")
	b, _ := LookupSpec("XeonX5550")
	a.Name = uniqueName(t, "ArrayA")
	b.Name = uniqueName(t, "ArrayB")
	data, err := json.Marshal([]Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	names, err := LoadSpecFile(writeTempSpec(t, string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != a.Name || names[1] != b.Name {
		t.Fatalf("loaded names = %v", names)
	}
}

func TestLoadSpecFileRejections(t *testing.T) {
	valid, _ := LookupSpec("Snowball")
	valid.Name = uniqueName(t, "Atomic")
	validJSON, _ := json.Marshal(valid)
	invalid := valid
	invalid.Cores = 0
	invalidJSON, _ := json.Marshal(invalid)
	dupJSON, _ := json.Marshal(mustSpec(t, "Snowball"))

	cases := []struct {
		name, content, wantErr string
	}{
		{"malformed JSON", "{not json", "parsing"},
		{"unknown field", `{"name":"X","coresss":2}`, "parsing"},
		{"empty file", "", "parsing"},
		{"empty array", "[]", "no specs"},
		{"trailing garbage", string(validJSON) + "{}", "parsing"},
		{"invalid spec", string(invalidJSON), "cores"},
		{"duplicate of builtin", string(dupJSON), "duplicate"},
		{"missing isa", stripField(t, validJSON, "isa"), "isa"},
	}
	for _, c := range cases {
		if _, err := LoadSpecFile(writeTempSpec(t, c.content)); err == nil ||
			!strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
	// Atomicity: a file mixing one new valid spec with one invalid spec
	// must register nothing.
	mixed, _ := json.Marshal([]Spec{valid, invalid})
	if _, err := LoadSpecFile(writeTempSpec(t, string(mixed))); err == nil {
		t.Fatal("mixed file accepted")
	}
	if _, ok := LookupSpec(valid.Name); ok {
		t.Error("half-applied spec file: valid spec registered despite sibling failure")
	}
	if _, err := LoadSpecFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// stripField removes one top-level key from a marshaled spec, modeling
// a user file that omitted it.
func stripField(t *testing.T, specJSON []byte, field string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(specJSON, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, field)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, ok := LookupSpec(name)
	if !ok {
		t.Fatalf("builtin %q missing", name)
	}
	return s
}

func TestParseISAAndBits(t *testing.T) {
	for _, c := range []struct {
		s    string
		want ISA
		bits int
	}{
		{"armv7", ARM32, 32},
		{"x86_64", X8664, 64},
		{"aarch64", ARM64, 64},
	} {
		got, err := ParseISA(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseISA(%q) = %v, %v", c.s, got, err)
		}
		if got.Bits() != c.bits {
			t.Errorf("%s.Bits() = %d, want %d", c.s, got.Bits(), c.bits)
		}
	}
	if _, err := ParseISA("sparc"); err == nil {
		t.Error("ParseISA accepted sparc")
	}
	if _, err := ISA(99).MarshalText(); err == nil {
		t.Error("MarshalText accepted out-of-range ISA")
	}
}

// The two related-work machines: a ThunderX2 server node must finally
// out-muscle the Xeon in DP peak, and the deployed Mont-Blanc card must
// keep the Exynos efficiency story at node-level power accounting.
func TestNewGenerationPlatforms(t *testing.T) {
	tx2 := MustLookup("ThunderX2")
	if err := tx2.Validate(); err != nil {
		t.Fatal(err)
	}
	if tx2.ISA != ARM64 {
		t.Errorf("ThunderX2 ISA = %v, want aarch64", tx2.ISA)
	}
	xeon := XeonX5550()
	if tx2.PeakFlops(true) <= xeon.PeakFlops(true) {
		t.Errorf("ThunderX2 DP peak %.0f GF not above Xeon %.0f GF",
			tx2.PeakFlops(true)/1e9, xeon.PeakFlops(true)/1e9)
	}
	mb := MustLookup("MontBlancNode")
	if err := mb.Validate(); err != nil {
		t.Fatal(err)
	}
	if mb.Accel == nil || mb.Accel.PeakDPFlops <= 0 {
		t.Error("MontBlancNode must carry the DP-capable Mali-T604")
	}
	if mb.RAMBytes != 4*units.GiB {
		t.Errorf("MontBlancNode RAM = %d, want 4 GiB per card", mb.RAMBytes)
	}
	if mb.Power.Compute <= Exynos5Dual().Power.Compute {
		t.Error("node-level envelope must exceed the bare SoC's 5 W")
	}
}
