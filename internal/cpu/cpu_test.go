package cpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestModelsValidate(t *testing.T) {
	for _, m := range []*Model{Nehalem(), A9500(), Tegra2(), CortexA15(), ThunderX2()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := Nehalem()
	bad.ClockHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad2 := Nehalem()
	bad2.MissOverlap = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("MissOverlap > 1 accepted")
	}
	bad3 := Nehalem()
	bad3.LoadIssue[1] = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero load issue accepted")
	}
	bad4 := Nehalem()
	bad4.FlopsPerCycleDP = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero DP throughput accepted")
	}
}

// Every field the stride kernel's timing reads is checked for sign and
// magnitude, so that a core Validate accepts gives a finite, positive
// membench bandwidth: each rejected value names its field.
func TestValidateRejectsEachField(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(m *Model)
	}{
		{"clock_hz", func(m *Model) { m.ClockHz = 0 }},
		{"clock_hz", func(m *Model) { m.ClockHz = 1e308 }},
		{"clock_hz", func(m *Model) { m.ClockHz = math.NaN() }},
		{"load_issue[0]", func(m *Model) { m.LoadIssue[0] = -1 }},
		{"load_issue[2]", func(m *Model) { m.LoadIssue[2] = 1e-300 }},
		{"load_issue[1]", func(m *Model) { m.LoadIssue[1] = 1e300 }},
		{"loop_overhead", func(m *Model) { m.LoopOverhead = -3 }},
		{"loop_overhead", func(m *Model) { m.LoopOverhead = math.Inf(1) }},
		{"spill_cost", func(m *Model) { m.SpillCost = -1 }},
		{"spill_cost", func(m *Model) { m.SpillCost = 1e300 }},
		{"spill_pipeline_factor", func(m *Model) { m.SpillPipelineFactor = -0.5 }},
		{"spill_pipeline_factor", func(m *Model) { m.SpillPipelineFactor = 1e300 }},
		{"regs[0]", func(m *Model) { m.Regs[0] = -1 }},
		{"regs[2]", func(m *Model) { m.Regs[2] = 1 << 40 }},
		{"miss_overlap", func(m *Model) { m.MissOverlap = -0.1 }},
		{"miss_overlap", func(m *Model) { m.MissOverlap = math.NaN() }},
	} {
		m := A9500()
		tc.set(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tc.field, err)
		}
	}
}

func TestWidthString(t *testing.T) {
	if W32.String() != "32b" || W64.String() != "64b" || W128.String() != "128b" {
		t.Error("width names wrong")
	}
	if W128.Bytes() != 16 {
		t.Error("W128 bytes wrong")
	}
	if len(Widths()) != 3 {
		t.Error("Widths() length")
	}
}

// Figure 6 premise: on Nehalem, wider elements reduce the issue cost per
// byte, so effective bandwidth grows monotonically with width.
func TestNehalemWiderIsCheaperPerByte(t *testing.T) {
	m := Nehalem()
	prev := 1e18
	for _, w := range Widths() {
		perByte := m.LoadCost(w) / float64(w.Bytes())
		if perByte >= prev {
			t.Errorf("Nehalem %v: %.3f cycles/byte not cheaper than previous width", w, perByte)
		}
		prev = perByte
	}
}

// Figure 6 premise: on the A9, 128-bit loads are no cheaper per byte
// than 32-bit loads ("vectorizing with 128 is similar to using 32 bit
// elements"), while 64-bit is the sweet spot.
func TestA9VectorizationPathology(t *testing.T) {
	m := A9500()
	perByte := func(w Width) float64 { return m.LoadCost(w) / float64(w.Bytes()) }
	if perByte(W128) < perByte(W32)*0.9 {
		t.Errorf("A9 128b (%f c/B) should not beat 32b (%f c/B)", perByte(W128), perByte(W32))
	}
	if perByte(W64) >= perByte(W32) {
		t.Errorf("A9 64b should beat 32b per byte")
	}
}

// Unrolling 8x on Nehalem must reduce the per-access cost for every
// width (Figure 6a: "unrolling loops and vectorizing both constantly
// improve performance").
func TestNehalemUnrollingAlwaysHelps(t *testing.T) {
	m := Nehalem()
	for _, w := range Widths() {
		c1 := m.IterationCost(w, 1) / 1
		c8 := m.IterationCost(w, 8) / 8
		if c8 >= c1 {
			t.Errorf("Nehalem %v: unroll8 %.3f >= unroll1 %.3f cycles/access", w, c8, c1)
		}
	}
}

// On the A9 with 128-bit elements, 8x unrolling overflows the usable
// q-register file and the spill penalty makes it *worse* (Figure 6b:
// "loop unrolling may even dramatically degrade performance").
func TestA9UnrollingDegrades128b(t *testing.T) {
	m := A9500()
	c1 := m.IterationCost(W128, 1) / 1
	c8 := m.IterationCost(W128, 8) / 8
	if c8 <= c1 {
		t.Errorf("A9 128b: unroll8 %.3f should exceed unroll1 %.3f cycles/access", c8, c1)
	}
	// ...while 64-bit unrolling still helps (the paper's best config).
	d1 := m.IterationCost(W64, 1) / 1
	d8 := m.IterationCost(W64, 8) / 8
	if d8 >= d1 {
		t.Errorf("A9 64b: unroll8 %.3f should beat unroll1 %.3f cycles/access", d8, d1)
	}
}

func TestSpillPenaltyMonotoneInUnroll(t *testing.T) {
	m := A9500()
	prev := -1.0
	for u := 1; u <= 16; u++ {
		p := m.SpillPenalty(W64, u)
		if p < prev {
			t.Errorf("spill penalty decreased at unroll %d", u)
		}
		prev = p
	}
	if m.SpillPenalty(W64, 1) != 0 {
		t.Error("no-unroll loop should not spill")
	}
}

// The DP/SP gap drives Table II's BigDFT row: the A9 must be far worse
// at DP relative to SP than Nehalem is.
func TestA9DoublePrecisionPenalty(t *testing.T) {
	a9, xeon := A9500(), Nehalem()
	a9Gap := a9.FlopsPerCycleSP / a9.FlopsPerCycleDP
	xeonGap := xeon.FlopsPerCycleSP / xeon.FlopsPerCycleDP
	if a9Gap <= xeonGap {
		t.Errorf("A9 SP/DP gap %.2f should exceed Nehalem's %.2f", a9Gap, xeonGap)
	}
}

func TestTegra2WeakerSPThanA9500(t *testing.T) {
	if Tegra2().FlopsPerCycleSP >= A9500().FlopsPerCycleSP {
		t.Error("Tegra2 (no NEON) should have lower SP throughput than A9500")
	}
}

// Property: IterationCost is monotone nondecreasing in unroll (the total
// per iteration grows; only the per-access share shrinks).
func TestIterationCostMonotoneProperty(t *testing.T) {
	f := func(widthSel uint8, u1, u2 uint8) bool {
		m := A9500()
		w := Widths()[int(widthSel)%3]
		a, b := int(u1%16)+1, int(u2%16)+1
		if a > b {
			a, b = b, a
		}
		return m.IterationCost(w, a) <= m.IterationCost(w, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIterationCostClampsUnroll(t *testing.T) {
	m := Nehalem()
	if m.IterationCost(W32, 0) != m.IterationCost(W32, 1) {
		t.Error("unroll < 1 should clamp to 1")
	}
}

func TestSecondsPerCycle(t *testing.T) {
	if Nehalem().SecondsPerCycle() != 1/2.66e9 {
		t.Error("SecondsPerCycle wrong")
	}
}
