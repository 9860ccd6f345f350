// Package platform assembles the machine models used throughout the
// reproduction: the Calao Snowball (ST-Ericsson A9500), the Intel Xeon
// X5550 reference server, the Tibidabo compute node (NVIDIA Tegra2),
// and the successor Arm generations from the related work (Exynos 5
// Mont-Blanc prototype nodes, a ThunderX2-class server node).
//
// A Platform bundles a core timing model, a cache hierarchy
// configuration, memory characteristics and a power envelope, and can
// instantiate fresh simulators (cache hierarchies, TLBs) for
// experiments. Platforms are defined as serializable Specs held in a
// process-wide registry (Register / Lookup / Names); users add their
// own machines from JSON spec files (LoadSpecFile). Calibration
// constants come from the parts' public specs; PLATFORMS.md documents
// how each registered spec was chosen.
package platform

import (
	"fmt"

	"montblanc/internal/cache"
	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/power"
	"montblanc/internal/topo"
	"montblanc/internal/units"
)

// ISA identifies the instruction set, which matters for workloads whose
// instruction counts differ across architectures (e.g. 64-bit bitboard
// chess on a 32-bit ARM needs roughly twice the instructions).
type ISA int

// Supported instruction sets.
const (
	ARM32 ISA = iota
	X8664
	ARM64
)

// String names the ISA.
func (i ISA) String() string {
	switch i {
	case ARM32:
		return "armv7"
	case X8664:
		return "x86_64"
	case ARM64:
		return "aarch64"
	default:
		return fmt.Sprintf("ISA(%d)", int(i))
	}
}

// Bits returns the ISA's native word width. Workload models that pay an
// emulation tax for 64-bit operations (bitboard chess) key on this
// rather than on a specific ISA, so 64-bit ARM platforms are costed
// like x86-64.
func (i ISA) Bits() int {
	if i == ARM32 {
		return 32
	}
	return 64
}

// ParseISA resolves an ISA name as used in spec files ("armv7",
// "x86_64", "aarch64").
func ParseISA(s string) (ISA, error) {
	for _, i := range []ISA{ARM32, X8664, ARM64} {
		if i.String() == s {
			return i, nil
		}
	}
	return 0, fmt.Errorf("platform: unknown ISA %q (want armv7, x86_64 or aarch64)", s)
}

// MarshalText encodes the ISA by name, so specs serialize readably.
func (i ISA) MarshalText() ([]byte, error) {
	switch i {
	case ARM32, X8664, ARM64:
		return []byte(i.String()), nil
	}
	return nil, fmt.Errorf("platform: cannot marshal %s", i)
}

// UnmarshalText decodes an ISA name.
func (i *ISA) UnmarshalText(b []byte) error {
	parsed, err := ParseISA(string(b))
	if err != nil {
		return err
	}
	*i = parsed
	return nil
}

// Accelerator is an on-chip GPU usable for general-purpose compute, the
// §VI.A perspective (Mali T604 on the Exynos 5, GPGPU on Tegra 3).
type Accelerator struct {
	Name        string  `json:"name"`
	PeakSPFlops float64 `json:"peak_sp_flops"` // flops/s, single precision
	PeakDPFlops float64 `json:"peak_dp_flops"` // flops/s, double precision (0 = unsupported)
}

// Platform is a complete single-node machine model.
type Platform struct {
	Name  string
	CPU   *cpu.Model
	Cores int
	ISA   ISA

	// Accel is the integrated GPU, when present.
	Accel *Accelerator

	RAMBytes int64

	// Power is the machine's state-resolved power profile. Its Compute
	// draw is the conservative envelope the paper accounts — full board
	// power for the Snowball (2.5 W), full TDP for the Xeon (95 W) —
	// and machines without a calibrated per-state section carry the
	// uniform profile, which reproduces the paper's constant model
	// exactly.
	Power power.Profile

	// MemBandwidth is the sustained stream bandwidth to DRAM in bytes/s
	// (per node, all cores).
	MemBandwidth float64

	// MemLatencyCycles is the DRAM access latency in core cycles.
	MemLatencyCycles int

	// Caches lists the cache levels, L1 first. The L1 entry is the one
	// whose page-colour count drives the §V.A.1 reproducibility story.
	Caches []cache.Config

	TLBEntries     int
	TLBMissPenalty int
}

// bound is one magnitude Validate checks, named as spec files spell it.
type bound struct {
	field     string
	value     float64
	low, high float64
}

// check reports the first value outside its [low, high] range (NaN
// included).
func check(machine string, bounds []bound) error {
	for _, b := range bounds {
		if !(b.value >= b.low && b.value <= b.high) {
			return fmt.Errorf("platform %s: %s %g outside [%g, %g]", machine, b.field, b.value, b.low, b.high)
		}
	}
	return nil
}

// Validate checks the platform definition. Besides the CPU model and the
// caches, it bounds every magnitude a model reads, so that no
// experiment on an accepted machine prints an infinite or NaN figure:
// a few orders of magnitude around today's nodes, each way.
func (p *Platform) Validate() error {
	bounds := []bound{
		{"cores", float64(p.Cores), 1, 4096},
		{"ram_bytes", float64(p.RAMBytes), units.MiB, 1 << 44}, // 16 TiB
		{"mem_bandwidth", p.MemBandwidth, 1e6, 1e15},
		{"mem_latency_cycles", float64(p.MemLatencyCycles), 1, 1e6},
		{"tlb_entries", float64(p.TLBEntries), 0, 1 << 16},
		{"tlb_miss_penalty", float64(p.TLBMissPenalty), 0, 1e6},
	}
	if p.Accel != nil {
		bounds = append(bounds,
			bound{"accel.peak_sp_flops", p.Accel.PeakSPFlops, 0, 1e18},
			bound{"accel.peak_dp_flops", p.Accel.PeakDPFlops, 0, 1e18})
	}
	if err := check(p.Name, bounds); err != nil {
		return err
	}
	if err := p.CPU.Validate(); err != nil {
		return err
	}
	if len(p.Caches) == 0 {
		return fmt.Errorf("platform %s: no cache levels", p.Name)
	}
	for _, c := range p.Caches {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewHierarchy builds a fresh cache hierarchy for one core of the
// platform, translating through mapper (nil for identity mapping).
func (p *Platform) NewHierarchy(mapper mem.Mapper) (*cache.Hierarchy, error) {
	var tlb *mem.TLB
	if mapper != nil {
		tlb = mem.NewTLB(p.TLBEntries, p.TLBMissPenalty, mapper)
	}
	return cache.NewHierarchy(p.Caches, p.MemLatencyCycles, tlb)
}

// L1 returns the first-level cache configuration.
func (p *Platform) L1() cache.Config { return p.Caches[0] }

// PageColors returns the number of physical page colours of the L1,
// the quantity that decides whether random page placement can hurt.
func (p *Platform) PageColors() int {
	l1 := p.L1()
	return mem.PageColors(l1.Size, l1.Associativity)
}

// PeakFlops returns the node CPU peak in flops/s at the given precision.
func (p *Platform) PeakFlops(doublePrecision bool) float64 {
	r := p.CPU.FlopsPerCycleSP
	if doublePrecision {
		r = p.CPU.FlopsPerCycleDP
	}
	return float64(p.Cores) * p.CPU.ClockHz * r
}

// PeakFlopsWithAccel returns the hybrid node peak including the
// integrated GPU, when present and capable of the precision.
func (p *Platform) PeakFlopsWithAccel(doublePrecision bool) float64 {
	total := p.PeakFlops(doublePrecision)
	if p.Accel != nil {
		if doublePrecision {
			total += p.Accel.PeakDPFlops
		} else {
			total += p.Accel.PeakSPFlops
		}
	}
	return total
}

// SustainedFlops returns the node throughput at the given precision and
// kernel efficiency (fraction of peak in (0,1]).
func (p *Platform) SustainedFlops(doublePrecision bool, efficiency float64) float64 {
	if efficiency <= 0 || efficiency > 1 {
		efficiency = 1
	}
	return p.PeakFlops(doublePrecision) * efficiency
}

// IntThroughput returns the node integer-op throughput in ops/s.
func (p *Platform) IntThroughput() float64 {
	return float64(p.Cores) * p.CPU.ClockHz * p.CPU.IntIPC
}

// Topology returns the hwloc-style tree of Figure 2.
func (p *Platform) Topology() *topo.Object {
	m := topo.NewMachine(p.RAMBytes)
	s := topo.NewSocket(0)
	perCore := make([]cache.Config, 0, len(p.Caches))
	shared := make([]cache.Config, 0, len(p.Caches))
	for _, c := range p.Caches {
		if c.Shared {
			shared = append(shared, c)
		} else {
			perCore = append(perCore, c)
		}
	}
	// Shared caches wrap all cores; per-core caches nest around each
	// core, outermost level first.
	attach := s
	for i := len(shared) - 1; i >= 0; i-- {
		c := topo.NewCache(shared[i].Level, int64(shared[i].Size))
		attach.Add(c)
		attach = c
	}
	for core := 0; core < p.Cores; core++ {
		inner := topo.NewCore(core).Add(topo.NewPU(core))
		for i := 0; i < len(perCore); i++ {
			// perCore is L1-first; nest L1 closest to the core.
			c := topo.NewCache(perCore[i].Level, int64(perCore[i].Size))
			c.Add(inner)
			inner = c
		}
		attach.Add(inner)
	}
	m.Add(s)
	return m
}

// String summarizes the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("%s: %d x %s @ %.2fGHz, %s RAM, %.1fW",
		p.Name, p.Cores, p.CPU.Name, p.CPU.ClockHz/1e9,
		units.Bytes(p.RAMBytes), p.Power.Compute)
}

// Snowball returns the Calao Snowball board model: dual-core A9500 at
// 1 GHz, 1 GB LP-DDR2 (796 MB visible), 2.5 W USB power envelope.
// The 32 KB 4-way L1 has two page colours — physically indexed, so an
// unlucky physical allocation makes an L1-sized array conflict with
// itself (§V.A.1). Built from the registered spec; see builtin.go.
func Snowball() *Platform { return MustLookup("Snowball") }

// XeonX5550 returns the reference server model: quad-core Nehalem at
// 2.66 GHz with hyperthreading disabled (as in the paper), 12 GB DDR3,
// 95 W TDP. Its 32 KB 8-way L1 has a single page colour, which is why
// x86 never showed the paper's page-allocation reproducibility problem.
func XeonX5550() *Platform { return MustLookup("XeonX5550") }

// Exynos5Dual returns the final Mont-Blanc prototype node the paper's
// §VI anticipates: Samsung Exynos 5 Dual (two Cortex-A15 at 1.7 GHz)
// with an integrated Mali-T604 GPU supporting double precision —
// "a peak performance of about a 100 GFLOPS for a power consumption of
// 5 Watts".
func Exynos5Dual() *Platform { return MustLookup("Exynos5Dual") }

// Tegra2Node returns one Tibidabo compute node: dual-core Tegra2
// (Cortex-A9 without NEON) at 1 GHz, 1 GB DDR2, with a PCIe 1 GbE NIC.
// Node power (~8.5 W including NIC, per the Tibidabo report) is kept for
// completeness; the paper does no large-scale power measurement.
func Tegra2Node() *Platform { return MustLookup("Tegra2") }
