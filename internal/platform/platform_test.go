package platform

import (
	"math"
	"strings"
	"testing"

	"montblanc/internal/cache"
	"montblanc/internal/mem"
	"montblanc/internal/topo"
	"montblanc/internal/units"
)

func TestAllPlatformsValidate(t *testing.T) {
	for _, p := range []*Platform{Snowball(), XeonX5550(), Tegra2Node()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	p := Snowball()
	p.Cores = 0
	if err := p.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	p2 := Snowball()
	p2.Caches = nil
	if err := p2.Validate(); err == nil {
		t.Error("no caches accepted")
	}
	p3 := Snowball()
	p3.MemBandwidth = 0
	if err := p3.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	// A level smaller than its line holds no line at all; the engine
	// would panic on the first access. Platform files and inline specs
	// reach the simulator through Spec.Validate, so check that path.
	s, ok := LookupSpec("Snowball")
	if !ok {
		t.Fatal("Snowball spec not registered")
	}
	s.Caches = append([]cache.Config(nil), s.Caches...)
	s.Caches[0].Size = s.Caches[0].LineSize / 2
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), s.Caches[0].Name) {
		t.Errorf("L1 smaller than its line: err = %v, want a rejection naming %s", err, s.Caches[0].Name)
	}
}

// Figure 2 shapes: the Xeon has private L1+L2 per core under a shared
// L3; the A9500 has private L1 under a shared L2.
func TestTopologiesMatchFigure2(t *testing.T) {
	xeon := XeonX5550().Topology()
	if err := xeon.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := xeon.Count(topo.Core); n != 4 {
		t.Errorf("Xeon cores = %d, want 4", n)
	}
	if got := len(xeon.FindCaches(3)); got != 1 {
		t.Errorf("Xeon L3 = %d, want 1", got)
	}
	if got := len(xeon.FindCaches(2)); got != 4 {
		t.Errorf("Xeon L2 = %d, want 4", got)
	}
	if got := len(xeon.FindCaches(1)); got != 4 {
		t.Errorf("Xeon L1 = %d, want 4", got)
	}

	snow := Snowball().Topology()
	if err := snow.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(snow.FindCaches(2)); got != 1 {
		t.Errorf("Snowball L2 = %d, want 1 (shared)", got)
	}
	if got := len(snow.FindCaches(1)); got != 2 {
		t.Errorf("Snowball L1 = %d, want 2", got)
	}
	render := snow.Render()
	for _, want := range []string{"Machine (796MiB)", "L2 (512KiB)", "L1 (32KiB)"} {
		if !strings.Contains(render, want) {
			t.Errorf("Snowball render missing %q", want)
		}
	}
}

// The §V.A.1 asymmetry: the Snowball L1 (32KB 4-way) has two page
// colours, the Xeon L1 (32KB 8-way) has one, so only the ARM platform
// can suffer allocation-dependent conflicts.
func TestPageColorAsymmetry(t *testing.T) {
	if c := Snowball().PageColors(); c != 2 {
		t.Errorf("Snowball colours = %d, want 2", c)
	}
	if c := XeonX5550().PageColors(); c != 1 {
		t.Errorf("Xeon colours = %d, want 1", c)
	}
	if c := Tegra2Node().PageColors(); c != 2 {
		t.Errorf("Tegra2 colours = %d, want 2", c)
	}
}

func TestPeakFlopsOrdering(t *testing.T) {
	snow, xeon := Snowball(), XeonX5550()
	// Xeon peak DP must be ~38x the Snowball's sustained LU rate class.
	ratioDP := xeon.PeakFlops(true) / snow.PeakFlops(true)
	if ratioDP < 20 || ratioDP > 50 {
		t.Errorf("peak DP ratio = %.1f, want 20-50 (Table II LINPACK is 38.7)", ratioDP)
	}
	// SP gap is smaller on the Snowball thanks to NEON.
	if snow.PeakFlops(false) <= snow.PeakFlops(true) {
		t.Error("SP peak should exceed DP peak on the Snowball")
	}
}

func TestSustainedFlopsClampsEfficiency(t *testing.T) {
	p := XeonX5550()
	if p.SustainedFlops(true, 0) != p.PeakFlops(true) {
		t.Error("efficiency 0 should clamp to 1")
	}
	if p.SustainedFlops(true, 0.5) != p.PeakFlops(true)*0.5 {
		t.Error("efficiency 0.5 wrong")
	}
}

func TestNewHierarchyWorks(t *testing.T) {
	p := Snowball()
	h, err := p.NewHierarchy(mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 2 {
		t.Errorf("Snowball depth = %d, want 2", h.Depth())
	}
	// First access: TLB miss + L1 miss + L2 miss + DRAM.
	l1, l2 := p.Caches[0].HitLatency, p.Caches[1].HitLatency
	cyc := h.Access(0, false)
	want := p.TLBMissPenalty + l1 + l2 + p.MemLatencyCycles
	if cyc != want {
		t.Errorf("cold access = %d, want %d", cyc, want)
	}

	// nil mapper: identity, no TLB cost.
	h2, err := p.NewHierarchy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cyc := h2.Access(0, false); cyc != l1+l2+p.MemLatencyCycles {
		t.Errorf("identity cold access = %d", cyc)
	}
}

func TestIntThroughputRatio(t *testing.T) {
	// CoreMark-class ratio (Table II row 2: 7.1x). Pure IPC x clock x
	// cores gives the right order; the app model refines it.
	r := XeonX5550().IntThroughput() / Snowball().IntThroughput()
	if r < 5 || r > 11 {
		t.Errorf("integer throughput ratio = %.1f, want 5-11", r)
	}
}

func TestPowerEnvelopes(t *testing.T) {
	if w := Snowball().Power.Compute; w != 2.5 {
		t.Errorf("Snowball power = %v, want 2.5", w)
	}
	if w := XeonX5550().Power.Compute; w != 95 {
		t.Errorf("Xeon power = %v, want 95", w)
	}
}

func TestRAMMatchesFigure2(t *testing.T) {
	if r := Snowball().RAMBytes; r != 796*units.MiB {
		t.Errorf("Snowball RAM = %d", r)
	}
	if r := XeonX5550().RAMBytes; r != 12*units.GiB {
		t.Errorf("Xeon RAM = %d", r)
	}
}

func TestStringContainsEssentials(t *testing.T) {
	s := Snowball().String()
	for _, want := range []string{"Snowball", "A9500", "2.5W"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// Sanity: the ISA labels are what build flags in the paper imply.
func TestISAs(t *testing.T) {
	if Snowball().ISA != ARM32 || Tegra2Node().ISA != ARM32 {
		t.Error("ARM platforms must be ARM32")
	}
	if XeonX5550().ISA != X8664 {
		t.Error("Xeon must be x86_64")
	}
	if ARM32.String() != "armv7" || X8664.String() != "x86_64" {
		t.Error("ISA names wrong")
	}
}

// The Tibidabo node is strictly weaker than the Snowball in SP (no
// NEON), matching the Tegra2 spec.
func TestTegra2WeakerThanSnowball(t *testing.T) {
	if Tegra2Node().PeakFlops(false) >= Snowball().PeakFlops(false) {
		t.Error("Tegra2 SP peak should be below Snowball's")
	}
}

func TestMemLatencySaneOrder(t *testing.T) {
	// DRAM latency must dominate L2 hit latency on all platforms.
	for _, p := range []*Platform{Snowball(), XeonX5550(), Tegra2Node()} {
		last := p.Caches[len(p.Caches)-1]
		if p.MemLatencyCycles <= last.HitLatency {
			t.Errorf("%s: DRAM (%d) not slower than last cache (%d)",
				p.Name, p.MemLatencyCycles, last.HitLatency)
		}
	}
	if math.Abs(XeonX5550().CPU.ClockHz-2.66e9) > 1e6 {
		t.Error("Xeon clock drifted from spec")
	}
}
