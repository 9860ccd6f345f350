package membench

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
)

// The steady-state membench contract (mirroring the simmpi guards): a
// measured pass on a reused Runner allocates (amortized) nothing — the
// batched engine works in reused buffers. This guard pins the
// *executed-pass* path: a pass over a random page mapping is off the
// set-major route and proves nothing, so all
// WarmPasses+MeasurePasses passes really run through AccessPass and a
// single allocation reintroduced per executed pass trips the <= 1
// bound. The mapper keeps its mappings across Runs, so the measured
// figure is 0.
func TestMembenchSteadyPassAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewRandomMapper(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    16 * units.KiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 64,
	}
	const passes = 2 + 64
	// Prime the Runner-owned scratch.
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedPasses != passes {
		t.Fatalf("simulated %d passes, want all %d; the guard would divide by passes that never execute",
			res.SimulatedPasses, passes)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perPass := allocsPerRun / passes
	t.Logf("allocs: %.0f per run, %.4f per executed pass", allocsPerRun, perPass)
	if perPass > 1.0 {
		t.Errorf("steady-state membench pass allocates %.2f per pass, want <= 1", perPass)
	}
}

// The replayed path's own contract: once a pass is certified, a reused
// Runner's Run allocates nothing, whatever MeasurePasses — the reset,
// delta capture and replay work in Runner-owned scratch, and a Result
// is plain counts. A flat per-Run bound (not a diluted per-pass
// average) catches an allocation reintroduced anywhere on the replayed
// path.
func TestMembenchMemoizedRunAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    2 * units.MiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 64,
	}
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayedPasses == 0 {
		t.Fatal("no pass certified; the guard would measure simulated passes")
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("allocs: %.0f per replayed 64-pass run", allocsPerRun)
	if allocsPerRun != 0 {
		t.Errorf("replayed run allocates %.0f, want 0", allocsPerRun)
	}
}

// The same guard for the scalar reference path: RunScalar must stay
// allocation-free per pass too, so speedup comparisons against it
// measure simulation work, not allocator traffic.
func TestMembenchScalarPassAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ArrayBytes:    64 * units.KiB,
		Width:         cpu.W64,
		WarmPasses:    2,
		MeasurePasses: 16,
	}
	const passes = 2 + 16
	if _, err := r.RunScalar(cfg); err != nil {
		t.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.RunScalar(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perPass := allocsPerRun / passes
	t.Logf("allocs: %.0f per run, %.4f per pass", allocsPerRun, perPass)
	if perPass > 1.0 {
		t.Errorf("scalar membench pass allocates %.2f per pass, want <= 1", perPass)
	}
}

// The sweeps' cell: LocalityProfile and OptimizationGrid reuse one
// Runner instead of building a hierarchy per cell. Run resets the
// hierarchy in place and replays from Runner-owned scratch, so a cell
// on a different configuration than the last allocates nothing.
func TestMembenchResetRunAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("XeonX5550"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := []Config{
		{ArrayBytes: 256 * units.KiB, StrideElems: 2},
		{ArrayBytes: 64 * units.KiB, StrideElems: 1},
	}
	cell := func() {
		for _, cfg := range cells {
			if _, err := r.Run(cfg); err != nil {
				t.Error(err)
			}
		}
	}
	cell() // prime the set-major and replay scratch
	allocsPerRun := testing.AllocsPerRun(3, cell) / float64(len(cells))
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("allocs: %.0f per cold Run cell", allocsPerRun)
	if allocsPerRun != 0 {
		t.Errorf("cold Run cell allocates %.0f, want 0", allocsPerRun)
	}
}
