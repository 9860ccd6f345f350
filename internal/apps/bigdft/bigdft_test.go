package bigdft

import (
	"math"
	"testing"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/power"
	"montblanc/internal/trace"
)

// Table II row 5: 420.4s vs 18.1s (ratio 23.2 — the worst ARM ratio in
// the table, because BigDFT is double-precision only), energy ratio 0.6.
func TestTable2BigDFTRow(t *testing.T) {
	snow := SmallInstanceTime(platform.Snowball())
	xeon := SmallInstanceTime(platform.XeonX5550())
	if math.Abs(snow-420.4)/420.4 > 0.10 {
		t.Errorf("Snowball = %.1fs, want ~420.4", snow)
	}
	if math.Abs(xeon-18.1)/18.1 > 0.10 {
		t.Errorf("Xeon = %.1fs, want ~18.1", xeon)
	}
	if ratio := snow / xeon; math.Abs(ratio-23.2)/23.2 > 0.15 {
		t.Errorf("ratio = %.1f, want ~23.2", ratio)
	}
	eRatio := power.EnergyRatioByTime(
		platform.Snowball().Power, snow, platform.XeonX5550().Power, xeon)
	if math.Abs(eRatio-0.6) > 0.12 {
		t.Errorf("energy ratio = %.2f, want ~0.6", eRatio)
	}
}

// BigDFT must have the worst time ratio of the Table II applications on
// ARM: double precision cannot use NEON.
func TestBigDFTWorstRatio(t *testing.T) {
	ratio := SmallInstanceTime(platform.Snowball()) / SmallInstanceTime(platform.XeonX5550())
	if ratio < 15 {
		t.Errorf("DP-only penalty too small: ratio %.1f", ratio)
	}
}

// Figure 3c: efficiency starts high and "drops rapidly"; by 36 cores it
// is far below the LINPACK/SPECFEM3D levels at comparable scale.
func TestFigure3cScalingCollapse(t *testing.T) {
	c, err := cluster.Tibidabo(32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScalingConfig{Iters: 5}
	points, err := StrongScaling(c, []int{1, 4, 8, 16, 36}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cores int) cluster.SpeedupPoint {
		for _, p := range points {
			if p.Cores == cores {
				return p
			}
		}
		t.Fatalf("missing %d cores", cores)
		return cluster.SpeedupPoint{}
	}
	if e := get(4).Efficiency; e < 0.75 {
		t.Errorf("4-core efficiency %.2f already collapsed", e)
	}
	if e := get(36).Efficiency; e > 0.55 {
		t.Errorf("36-core efficiency %.2f did not collapse", e)
	}
	if get(36).Efficiency >= get(8).Efficiency {
		t.Error("efficiency must decrease with scale")
	}
	// The collapse coincides with switch buffer overruns.
	if get(36).Drops == 0 {
		t.Error("no drops at 36 cores; the Figure 4 mechanism is missing")
	}
	if get(8).Drops != 0 {
		t.Error("drops at 8 cores; rendezvous should protect small scales")
	}
}

// Figure 4: at 36 cores most alltoallv instances are delayed by
// retransmissions; in some all ranks suffer, in others only part.
func TestFigure4DelayedCollectives(t *testing.T) {
	c, err := cluster.Tibidabo(32)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TraceDistributed(c, 36, ScalingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("no trace")
	}
	cr := trace.AnalyzeCongestion(rep.Trace, "alltoallv")
	if cr.Instances != 30 { // 10 iterations x 3 transposes
		t.Errorf("instances = %d, want 30", cr.Instances)
	}
	if float64(cr.Delayed) < 0.5*float64(cr.Instances) {
		t.Errorf("delayed = %d of %d; paper says 'most ... are longer and delayed'",
			cr.Delayed, cr.Instances)
	}
	if cr.FullyDelayed == 0 {
		t.Error("no fully-delayed instances ('in some cases all the nodes are delayed')")
	}
	if cr.PartiallyDelayed == 0 {
		t.Error("no partially-delayed instances ('in other, only part of them suffers')")
	}

	// The same instance at 8 cores stays clean.
	small, err := TraceDistributed(c, 8, ScalingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cr8 := trace.AnalyzeCongestion(small.Trace, "alltoallv"); cr8.Delayed != 0 {
		t.Errorf("8-core run has %d delayed instances", cr8.Delayed)
	}
}

// The switch-buffer ablation: with infinite switch buffers the collapse
// disappears.
func TestAblationInfiniteBuffers(t *testing.T) {
	c1, _ := cluster.Tibidabo(32)
	cfg := ScalingConfig{Iters: 5}
	finite, err := TimeDistributed(c1, 36, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := cluster.Tibidabo(32)
	c2.Net.InfiniteBuffers()
	infinite, err := TimeDistributed(c2, 36, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if infinite.Drops != 0 {
		t.Error("infinite buffers still dropped")
	}
	if finite.Seconds < infinite.Seconds*1.2 {
		t.Errorf("finite buffers (%.3fs) should be >=20%% slower than infinite (%.3fs)",
			finite.Seconds, infinite.Seconds)
	}
}

func TestDistributedDeterminism(t *testing.T) {
	c, _ := cluster.Tibidabo(16)
	cfg := ScalingConfig{Iters: 3}
	a, err := TimeDistributed(c, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TimeDistributed(c, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.Drops != b.Drops {
		t.Error("not deterministic")
	}
}
