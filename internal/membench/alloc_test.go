package membench

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
)

// The steady-state membench contract (mirroring the simmpi guards): a
// measured pass on a warm Runner allocates (amortized) nothing — the
// batched engine works in reused buffers and fixed-point snapshots live
// in Runner-owned scratch. This guard pins the *executed-pass* path: the
// array is kept below the memoization gate (Runner.memoizes), so all
// WarmPasses+MeasurePasses passes really run through AccessRun and a
// single allocation reintroduced per executed pass trips the <= 1
// bound. Only the per-Run constant overhead (the papi.Counters
// snapshot) allocates, so the measured figure is ~0.03.
func TestMembenchSteadyPassAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	r, err := NewRunner(platform.MustLookup("Snowball"), mem.NewContiguousMapper(0))
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
	if r.memoizes(cfg) {
		t.Fatal("config reaches the memoization gate; the guard would divide by passes that never execute")
	}
	// Prime the Runner-owned scratch.
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedPasses != passes {
		t.Fatalf("simulated %d passes, want all %d", res.SimulatedPasses, passes)
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

// The memoized path's own contract: above the gate, a Run's allocation
// cost is a small constant regardless of MeasurePasses — snapshots,
// delta capture and replay all work in Runner-owned scratch. A flat
// per-Run bound (not a diluted per-pass average) catches an allocation
// reintroduced anywhere on the memoized path.
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
	if !r.memoizes(cfg) {
		t.Fatal("config misses the memoization gate")
	}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(cfg); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("allocs: %.0f per memoized 64-pass run", allocsPerRun)
	if allocsPerRun > 16 {
		t.Errorf("memoized run allocates %.0f, want a small constant (<= 16)", allocsPerRun)
	}
}

// The same guard for the scalar reference path: RunScalar predates the
// batched engine and must stay allocation-free per pass too, so
// speedup comparisons measure simulation work, not allocator traffic.
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
