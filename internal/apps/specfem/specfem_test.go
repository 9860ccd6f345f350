package specfem

import (
	"math"
	"testing"

	"montblanc/internal/cluster"
	"montblanc/internal/platform"
	"montblanc/internal/power"
)

// Table II row 4: 186.8s on the Snowball vs 23.5s on the Xeon (ratio
// 7.9), energy ratio ~0.2.
func TestTable2SpecfemRow(t *testing.T) {
	snow := SmallInstanceTime(platform.Snowball())
	xeon := SmallInstanceTime(platform.XeonX5550())
	if math.Abs(snow-186.8)/186.8 > 0.10 {
		t.Errorf("Snowball = %.1fs, want ~186.8", snow)
	}
	if math.Abs(xeon-23.5)/23.5 > 0.12 {
		t.Errorf("Xeon = %.1fs, want ~23.5", xeon)
	}
	if ratio := snow / xeon; math.Abs(ratio-7.9)/7.9 > 0.15 {
		t.Errorf("ratio = %.1f, want ~7.9", ratio)
	}
	eRatio := power.EnergyRatioByTime(
		platform.Snowball().Power, snow, platform.XeonX5550().Power, xeon)
	if math.Abs(eRatio-0.2) > 0.07 {
		t.Errorf("energy ratio = %.2f, want ~0.2", eRatio)
	}
}

func TestGridFactorization(t *testing.T) {
	cases := map[int][2]int{
		4: {2, 2}, 8: {2, 4}, 16: {4, 4}, 36: {6, 6}, 96: {8, 12}, 7: {1, 7},
	}
	for ranks, want := range cases {
		r, c := grid(ranks)
		if r*c != ranks {
			t.Errorf("grid(%d) = %dx%d does not cover", ranks, r, c)
		}
		if r != want[0] || c != want[1] {
			t.Errorf("grid(%d) = %dx%d, want %dx%d", ranks, r, c, want[0], want[1])
		}
	}
}

// The memory constraint: the instance cannot run on a single node.
func TestInstanceNeedsTwoNodes(t *testing.T) {
	c, _ := cluster.Tibidabo(8)
	if _, err := TimeDistributed(c, 2, ScalingConfig{}); err == nil {
		t.Error("2 ranks (one node) should fail the 1.4GB memory check")
	}
	if _, err := TimeDistributed(c, 4, ScalingConfig{Steps: 2}); err != nil {
		t.Errorf("4 ranks (two nodes) should work: %v", err)
	}
}

// Figure 3b: strong scaling with ~90% efficiency against the 4-core
// baseline, and zero switch drops (point-to-point only).
func TestFigure3bScaling(t *testing.T) {
	c, err := cluster.Tibidabo(96)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScalingConfig{Steps: 20}
	points, err := StrongScaling(c, []int{4, 16, 64, 192}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if last.Efficiency < 0.82 {
		t.Errorf("192-core efficiency = %.3f, want ~0.9", last.Efficiency)
	}
	if last.Efficiency > 1.01 {
		t.Errorf("192-core efficiency = %.3f, superlinear?", last.Efficiency)
	}
	for _, pt := range points {
		if pt.Drops != 0 {
			t.Errorf("%d cores: %d drops; halo exchange must not congest", pt.Cores, pt.Drops)
		}
	}
}

func TestDistributedDeterminism(t *testing.T) {
	c, _ := cluster.Tibidabo(8)
	cfg := ScalingConfig{Steps: 5}
	a, err := TimeDistributed(c, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TimeDistributed(c, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Error("not deterministic")
	}
}
