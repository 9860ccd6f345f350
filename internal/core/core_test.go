package core

import (
	"math"
	"testing"

	"montblanc/internal/platform"
)

func TestMontBlancApplications(t *testing.T) {
	apps := MontBlancApplications()
	if len(apps) != 11 {
		t.Fatalf("applications = %d, want 11 (Table I)", len(apps))
	}
	byCode := map[string]Application{}
	for _, a := range apps {
		if a.Code == "" || a.Domain == "" || a.Institution == "" {
			t.Errorf("incomplete entry: %+v", a)
		}
		byCode[a.Code] = a
	}
	if byCode["BigDFT"].Institution != "CEA" {
		t.Error("BigDFT institution wrong")
	}
	if byCode["SPECFEM3D"].Domain != "Wave Propagation" {
		t.Error("SPECFEM3D domain wrong")
	}
	// Two protein-folding codes from JSC, as in the paper.
	folding := 0
	for _, a := range apps {
		if a.Domain == "Protein Folding" {
			folding++
		}
	}
	if folding != 2 {
		t.Errorf("protein folding codes = %d, want 2", folding)
	}
}

// The headline result: the full Table II, with every paper value
// reproduced within tolerance.
func TestTableIIReproduction(t *testing.T) {
	rows, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	want := []struct {
		name        string
		snowball    float64
		xeon        float64
		ratio       float64
		energyRatio float64
		relTol      float64 // on values
		ratioTol    float64 // relative on ratio
		eTol        float64 // absolute on energy ratio
	}{
		{"LINPACK", 620, 24000, 38.7, 1.0, 0.10, 0.15, 0.15},
		{"CoreMark", 5877, 41950, 7.1, 0.2, 0.05, 0.10, 0.05},
		{"StockFish", 224113, 4521733, 20.2, 0.5, 0.05, 0.10, 0.08},
		{"SPECFEM3D", 186.8, 23.5, 7.9, 0.2, 0.12, 0.15, 0.07},
		{"BigDFT", 420.4, 18.1, 23.2, 0.6, 0.10, 0.15, 0.12},
	}
	for i, w := range want {
		r := rows[i]
		t.Run(w.name, func(t *testing.T) {
			if r.Workload != w.name {
				t.Fatalf("row %d = %s, want %s", i, r.Workload, w.name)
			}
			if math.Abs(r.Candidate-w.snowball)/w.snowball > w.relTol {
				t.Errorf("%s Snowball = %.1f, want ~%.1f", w.name, r.Candidate, w.snowball)
			}
			if math.Abs(r.Reference-w.xeon)/w.xeon > w.relTol {
				t.Errorf("%s Xeon = %.1f, want ~%.1f", w.name, r.Reference, w.xeon)
			}
			if math.Abs(r.Ratio-w.ratio)/w.ratio > w.ratioTol {
				t.Errorf("%s ratio = %.1f, want ~%.1f", w.name, r.Ratio, w.ratio)
			}
			if math.Abs(r.EnergyRatio-w.energyRatio) > w.eTol {
				t.Errorf("%s energy ratio = %.2f, want ~%.1f", w.name, r.EnergyRatio, w.energyRatio)
			}
		})
	}
}

// The qualitative conclusions of §III.C.
func TestTableIIConclusions(t *testing.T) {
	rows, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Comparison{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// "running the LINPACK benchmarks costs the same energy on the Xeon
	// as on the Snowball"
	if e := byName["LINPACK"].EnergyRatio; e < 0.85 || e > 1.15 {
		t.Errorf("LINPACK energy parity broken: %.2f", e)
	}
	// "for CoreMark and SPECFEM3D the energy required is 5 times lower"
	for _, name := range []string{"CoreMark", "SPECFEM3D"} {
		if e := byName[name].EnergyRatio; e > 0.3 {
			t.Errorf("%s energy ratio %.2f, want ~0.2", name, e)
		}
	}
	// "For StockFish and BigDFT only half the energy is consumed"
	for _, name := range []string{"StockFish", "BigDFT"} {
		if e := byName[name].EnergyRatio; e < 0.35 || e > 0.75 {
			t.Errorf("%s energy ratio %.2f, want ~0.5", name, e)
		}
	}
	// BigDFT (DP-only) is the worst time ratio among the applications.
	if byName["BigDFT"].Ratio <= byName["SPECFEM3D"].Ratio {
		t.Error("BigDFT should fare worse than SPECFEM3D on ARM (DP on VFP)")
	}
}

// The 64-bit emulation tax: ARM needs > 2x the instructions per node.
func TestBitboardEmulationTax(t *testing.T) {
	tax := stockFishInstrPerNode(platform.ARM32) / stockFishInstrPerNode(platform.X8664)
	if tax < 2 || tax > 3 {
		t.Errorf("instruction tax = %.2f, want 2-3x", tax)
	}
}

// CoreMark/MHz sanity: the Cortex-A9 delivered ~2.9 CM/MHz, Nehalem ~4.
func TestCoreMarkPerMHz(t *testing.T) {
	perMHz := func(p *platform.Platform) float64 {
		return coreMarkScore(p) / float64(p.Cores) / (p.CPU.ClockHz / 1e6)
	}
	if cm := perMHz(platform.Snowball()); cm < 2.5 || cm > 3.5 {
		t.Errorf("A9 CoreMark/MHz = %.2f, want ~2.9", cm)
	}
	if cm := perMHz(platform.XeonX5550()); cm < 3.5 || cm > 4.5 {
		t.Errorf("Nehalem CoreMark/MHz = %.2f, want ~3.9", cm)
	}
}

func TestCompareRejectsBadWorkload(t *testing.T) {
	bad := Workload{
		Name: "broken", Metric: Rate, Unit: "x",
		Measure: func(*platform.Platform) (float64, error) { return 0, nil },
	}
	ps := []*platform.Platform{platform.Snowball(), platform.XeonX5550()}
	if _, err := RunSweep(ps, []Workload{bad}); err == nil {
		t.Error("non-positive measurement accepted")
	}
}

func TestCompareTimeMetricOrientation(t *testing.T) {
	w := Workload{
		Name: "t", Metric: Time, Unit: "s",
		Measure: func(p *platform.Platform) (float64, error) {
			if p.ISA == platform.ARM32 {
				return 100, nil
			}
			return 10, nil
		},
	}
	s, err := RunSweep([]*platform.Platform{platform.Snowball(), platform.XeonX5550()}, []Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Ratio(0, 0, 1); r != 10 {
		t.Errorf("time ratio = %v, want 10 (candidate slower)", r)
	}
}
