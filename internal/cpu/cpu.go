// Package cpu provides first-order core timing models for the three
// micro-architectures in the paper: Intel Nehalem (Xeon X5550),
// ST-Ericsson A9500 (Snowball) and NVIDIA Tegra2 — the last two both
// dual Cortex-A9 but with different memory subsystems and, crucially for
// BigDFT, a NEON unit that only supports single precision.
//
// The model is deliberately coarse — issue costs, loop overhead,
// register-pressure spills and miss-overlap factors — because those are
// exactly the effects the paper's Figures 6 and 7 turn on: wider
// elements and deeper unrolling always pay off on Nehalem, while on the
// Cortex-A9 128-bit accesses behave like 32-bit ones and unrolling can
// be dramatically detrimental.
package cpu

import "fmt"

// Width is a memory element width used by the stride kernel.
type Width int

// Element widths of Figure 6.
const (
	W32  Width = 4  // 32-bit scalar
	W64  Width = 8  // 64-bit scalar (or paired load)
	W128 Width = 16 // 128-bit vector (SSE / NEON q-register)
)

// Bytes returns the width in bytes.
func (w Width) Bytes() int { return int(w) }

// String names the width as in the paper's figures.
func (w Width) String() string {
	switch w {
	case W32:
		return "32b"
	case W64:
		return "64b"
	case W128:
		return "128b"
	default:
		return fmt.Sprintf("Width(%d)", int(w))
	}
}

// Widths lists all element widths in figure order.
func Widths() []Width { return []Width{W32, W64, W128} }

func widthIndex(w Width) int {
	switch w {
	case W32:
		return 0
	case W64:
		return 1
	case W128:
		return 2
	default:
		return -1
	}
}

// Model is a first-order core timing model. The JSON tags define the
// wire form used by platform spec files (see internal/platform.Spec).
type Model struct {
	Name    string  `json:"name"`
	ClockHz float64 `json:"clock_hz"`

	// LoadIssue[i] is the sustained issue cost in cycles of one load of
	// Widths()[i]. On Nehalem one 128-bit load issues per cycle; on the
	// A9 a 128-bit NEON load cracks into multiple slots and suffers
	// alignment penalties, making it no better than 32-bit scalar code.
	LoadIssue [3]float64 `json:"load_issue"`

	// LoopOverhead is the per-iteration cost (compare, branch, index
	// update) paid once per source-level loop iteration. Unrolling
	// amortizes it.
	LoopOverhead float64 `json:"loop_overhead"`

	// Regs[i] is the number of architectural registers usable to hold
	// in-flight loaded values of Widths()[i] before the compiler starts
	// spilling. Out-of-order renaming makes the effective Nehalem file
	// larger than its 16 architectural registers.
	Regs [3]int `json:"regs"`

	// SpillCost is the cycle cost per spilled value per iteration (one
	// store + one reload hitting the store buffer / L1).
	SpillCost float64 `json:"spill_cost"`

	// MissOverlap is the fraction of beyond-L1 latency hidden by the
	// memory pipeline (miss-under-miss, prefetch). Out-of-order Nehalem
	// hides most of it; the in-order dual-issue A9 hides little.
	MissOverlap float64 `json:"miss_overlap"`

	// Floating-point throughput per core in flops/cycle. The A9500's
	// NEON is single-precision only, so DP work falls back to the
	// non-pipelined VFP giving a dramatically lower DP figure —
	// the paper's explanation for BigDFT's 23.2x slowdown.
	FlopsPerCycleSP float64 `json:"flops_per_cycle_sp"`
	FlopsPerCycleDP float64 `json:"flops_per_cycle_dp"`

	// IntIPC is the sustained instructions-per-cycle on branchy integer
	// code (CoreMark, chess search).
	IntIPC float64 `json:"int_ipc"`

	// SpillPipelineFactor scales how violently spills hurt. On the
	// in-order A9 a spill stalls the pipeline; on Nehalem the store
	// buffer absorbs it.
	SpillPipelineFactor float64 `json:"spill_pipeline_factor"`

	// OutOfOrder marks cores with register renaming and a reorder
	// window. In-order cores expose floating-point dependency latency
	// directly, which is why unrolling (more independent accumulator
	// chains) matters so much more on the Cortex-A9 (Figure 7).
	OutOfOrder bool `json:"out_of_order"`
}

// Bounds Validate puts on a core so that every membench measurement on
// it has a finite, positive bandwidth: an access costs between
// minLoadIssue and a few maxCycles cycles, and a clock between
// minClockHz and maxClockHz turns any such cycle count into a finite,
// positive time.
const (
	minClockHz, maxClockHz = 1, 1e12 // Hz
	minLoadIssue           = 1e-3    // cycles per load
	maxCycles              = 1e6     // cycles, or the spill factor
	maxRegs                = 1 << 16
)

// Validate reports model configuration errors, naming the offending
// field as spec files spell it. Besides signs, it bounds every quantity
// the stride kernel's timing uses (see maxCycles).
func (m *Model) Validate() error {
	if !(m.ClockHz >= minClockHz && m.ClockHz <= maxClockHz) {
		return fmt.Errorf("cpu %s: clock_hz %g outside [%g, %g]", m.Name, m.ClockHz, float64(minClockHz), float64(maxClockHz))
	}
	for i, c := range m.LoadIssue {
		if !(c >= minLoadIssue && c <= maxCycles) {
			return fmt.Errorf("cpu %s: load_issue[%d] %g outside [%g, %g]", m.Name, i, c, minLoadIssue, float64(maxCycles))
		}
	}
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"loop_overhead", m.LoopOverhead},
		{"spill_cost", m.SpillCost},
		{"spill_pipeline_factor", m.SpillPipelineFactor},
	} {
		if !(f.value >= 0 && f.value <= maxCycles) {
			return fmt.Errorf("cpu %s: %s %g outside [0, %g]", m.Name, f.name, f.value, float64(maxCycles))
		}
	}
	for i, r := range m.Regs {
		if r < 0 || r > maxRegs {
			return fmt.Errorf("cpu %s: regs[%d] %d outside [0, %d]", m.Name, i, r, maxRegs)
		}
	}
	if !(m.MissOverlap >= 0 && m.MissOverlap <= 1) {
		return fmt.Errorf("cpu %s: miss_overlap %g outside [0, 1]", m.Name, m.MissOverlap)
	}
	if !(m.FlopsPerCycleSP > 0 && m.FlopsPerCycleDP > 0 && m.IntIPC > 0) {
		return fmt.Errorf("cpu %s: non-positive throughput", m.Name)
	}
	return nil
}

// LoadCost returns the issue cost in cycles for one load of width w.
func (m *Model) LoadCost(w Width) float64 { return m.LoadIssue[widthIndex(w)] }

// RegsFor returns the usable register count for width w.
func (m *Model) RegsFor(w Width) int { return m.Regs[widthIndex(w)] }

// IterationCost returns the issue cycles consumed by one *unrolled*
// iteration of a load loop: `unroll` loads of width w plus loop
// overhead plus any register-spill penalty. Divide by unroll for the
// per-element-access cost.
func (m *Model) IterationCost(w Width, unroll int) float64 {
	if unroll < 1 {
		unroll = 1
	}
	cost := float64(unroll)*m.LoadCost(w) + m.LoopOverhead
	cost += m.SpillPenalty(w, unroll)
	return cost
}

// SpillPenalty returns the extra cycles per iteration caused by
// register pressure: unrolled loop bodies keep `unroll` values live
// (plus index/bound bookkeeping); values beyond the usable file spill.
// The cost scales with the element width — spilling a q-register moves
// four times the bytes of a word spill.
func (m *Model) SpillPenalty(w Width, unroll int) float64 {
	live := unroll + 2 // loaded values + index + bound
	excess := live - m.RegsFor(w)
	if excess <= 0 {
		return 0
	}
	widthScale := float64(w.Bytes()) / 4
	return float64(excess) * m.SpillCost * widthScale * m.SpillPipelineFactor
}

// StallCyclesTotal converts cache latency into pipeline stall cycles:
// extraCycles is a pre-clamped sum of per-access latency beyond the L1
// hit cost (cache.RunResult.Extra), of which MissOverlap is hidden.
func (m *Model) StallCyclesTotal(extraCycles uint64) float64 {
	return float64(extraCycles) * (1 - m.MissOverlap)
}

// SecondsPerCycle returns the wall-clock duration of one cycle.
func (m *Model) SecondsPerCycle() float64 { return 1 / m.ClockHz }

// Nehalem returns the Intel Xeon X5550 core model (2.66 GHz Nehalem-EP;
// the paper rounds to "2.6GHz"). SSE2: 128-bit loads at 1/cycle, 2 DP
// flops/cycle sustained in dense kernels, deep out-of-order window.
func Nehalem() *Model {
	return &Model{
		Name:                "Nehalem",
		ClockHz:             2.66e9,
		LoadIssue:           [3]float64{1.0, 1.0, 1.0},
		LoopOverhead:        2.0,
		Regs:                [3]int{18, 18, 16}, // renamed effective file
		SpillCost:           1.0,
		SpillPipelineFactor: 0.5, // store buffer absorbs spills
		MissOverlap:         0.85,
		FlopsPerCycleSP:     4.0, // 128-bit SSE SP
		FlopsPerCycleDP:     2.3, // measured HPL-class DP throughput
		IntIPC:              1.55,
		OutOfOrder:          true,
	}
}

// CortexA9 returns the core model shared by the A9500 (Snowball) and
// Tegra2 SoCs: dual-issue in-order 1 GHz Cortex-A9 with NEON (SP only)
// and a non-pipelined VFP for double precision.
func CortexA9(name string) *Model {
	return &Model{
		Name:    name,
		ClockHz: 1.0e9,
		// 32-bit scalar load: ~1.3 cycles sustained; 64-bit LDRD moves
		// two words per issue slot; a 128-bit NEON VLD1 cracks into
		// several slots and stalls on alignment, leaving it no better
		// per byte than scalar code — the Figure 6b pathology.
		LoadIssue:           [3]float64{1.3, 1.4, 12.0},
		LoopOverhead:        3.0,
		Regs:                [3]int{10, 10, 4}, // small usable file; q-regs scarce
		SpillCost:           2.5,
		SpillPipelineFactor: 2.0,  // in-order pipeline stalls on spills
		MissOverlap:         0.45, // PL310 sequential prefetch hides part of L2 latency
		FlopsPerCycleSP:     1.0,  // NEON MAC, SP only
		FlopsPerCycleDP:     0.35, // VFP, non-pipelined
		IntIPC:              0.95,
	}
}

// A9500 returns the Snowball's ST-Ericsson A9500 core model.
func A9500() *Model { return CortexA9("A9500") }

// CortexA15 returns the out-of-order Cortex-A15 core model used by the
// Exynos 5 Dual platforms (§VI and the deployed Mont-Blanc prototype):
// 1.7 GHz, VFPv4 NEON with FMA (4 SP flops/cycle) and NEONv2 double
// precision, a deeper pipeline that overlaps more of the miss latency
// than the A9.
func CortexA15() *Model {
	m := CortexA9("CortexA15")
	m.ClockHz = 1.7e9
	m.OutOfOrder = true
	m.MissOverlap = 0.6
	m.IntIPC = 1.4
	m.FlopsPerCycleSP = 4.0 // VFPv4 NEON with FMA
	m.FlopsPerCycleDP = 1.0 // NEONv2 handles doubles
	m.Regs = [3]int{14, 14, 8}
	return m
}

// ThunderX2 returns the Marvell ThunderX2 CN99xx core model of the
// Dibona cluster study (arXiv:2007.04868): 2.0 GHz Vulcan core, 4-wide
// out-of-order, two 128-bit NEON units (8 SP / 4 DP flops/cycle with
// FMA) and the large AArch64 register files that make unrolling safe.
func ThunderX2() *Model {
	return &Model{
		Name:                "ThunderX2",
		ClockHz:             2.0e9,
		LoadIssue:           [3]float64{1.0, 1.0, 1.0}, // two load/store pipes
		LoopOverhead:        2.0,
		Regs:                [3]int{26, 26, 28}, // 31 GP / 32 NEON architectural
		SpillCost:           1.0,
		SpillPipelineFactor: 0.5,
		MissOverlap:         0.8,
		FlopsPerCycleSP:     8.0, // 2 x 128-bit NEON FMA
		FlopsPerCycleDP:     4.0,
		IntIPC:              1.3,
		OutOfOrder:          true,
	}
}

// Tegra2 returns the Tibidabo node's NVIDIA Tegra2 core model. Same
// Cortex-A9 pipeline as the A9500 but without NEON: the Tegra2 omits the
// media engine, so even SP throughput is VFP-bound, and 128-bit element
// accesses gain nothing.
func Tegra2() *Model {
	m := CortexA9("Tegra2")
	m.FlopsPerCycleSP = 0.5 // VFPv3 without NEON
	m.LoadIssue = [3]float64{1.3, 1.4, 12.5}
	return m
}
