package linpack

import (
	"math"
	"testing"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/power"
)

// Table II row 1: 620 MFLOPS on the Snowball, 24000 on the Xeon,
// ratio 38.7, energy ratio 1.0.
func TestTable2LinpackRow(t *testing.T) {
	snow := Mflops(platform.Snowball())
	xeon := Mflops(platform.XeonX5550())
	if math.Abs(snow-620)/620 > 0.10 {
		t.Errorf("Snowball = %.0f MFLOPS, want ~620", snow)
	}
	if math.Abs(xeon-24000)/24000 > 0.10 {
		t.Errorf("Xeon = %.0f MFLOPS, want ~24000", xeon)
	}
	ratio := xeon / snow
	if math.Abs(ratio-38.7)/38.7 > 0.15 {
		t.Errorf("ratio = %.1f, want ~38.7", ratio)
	}
	eRatio := power.EnergyRatioByRate(
		platform.Snowball().Power, snow, platform.XeonX5550().Power, xeon)
	if math.Abs(eRatio-1.0) > 0.15 {
		t.Errorf("energy ratio = %.2f, want ~1.0", eRatio)
	}
}

func TestDistributedSmallInstance(t *testing.T) {
	c, err := cluster.Tibidabo(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScalingConfig{N: 2048, NB: 64}
	points, err := StrongScaling(c, []int{2, 4, 8, 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Efficiency decreases with scale but stays reasonable.
	for i := 1; i < len(points); i++ {
		if points[i].Efficiency > points[i-1].Efficiency+0.01 {
			t.Errorf("efficiency rose from %.3f to %.3f at %d cores",
				points[i-1].Efficiency, points[i].Efficiency, points[i].Cores)
		}
	}
	last := points[len(points)-1]
	if last.Efficiency < 0.4 {
		t.Errorf("16-core efficiency %.3f collapsed", last.Efficiency)
	}
	if last.Speedup <= points[0].Speedup {
		t.Error("no speedup at all")
	}
}

func TestDistributedValidation(t *testing.T) {
	c, _ := cluster.Tibidabo(4)
	if _, err := TimeDistributed(c, 2, ScalingConfig{N: 1000, NB: 64}); err == nil {
		t.Error("N not multiple of NB accepted")
	}
	// Default instance (3.4GB) cannot fit two nodes.
	if _, err := TimeDistributed(c, 4, ScalingConfig{}); err == nil {
		t.Error("memory oversubscription accepted")
	}
}

func TestDistributedDeterminism(t *testing.T) {
	c, _ := cluster.Tibidabo(8)
	cfg := ScalingConfig{N: 1024, NB: 64}
	a, err := TimeDistributed(c, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TimeDistributed(c, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Error("distributed LU not deterministic")
	}
}

func TestLUEfficiencyOrdering(t *testing.T) {
	if LUEfficiency(platform.Snowball()) >= LUEfficiency(platform.XeonX5550()) {
		t.Error("in-order core should reach a smaller fraction of peak")
	}
}
