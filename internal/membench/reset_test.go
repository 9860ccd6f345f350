package membench

import (
	"fmt"
	"reflect"
	"testing"

	"montblanc/internal/cache"
	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
	"montblanc/internal/xrand"
)

// randomCell draws a small measurement like a locality or Figure 6 cell.
func randomCell(rng *xrand.Rand) Config {
	sizes := []int{2 * units.KiB, 16 * units.KiB, 50 * units.KiB, 256 * units.KiB, 1 * units.MiB}
	return Config{
		ArrayBytes:    sizes[rng.Uint64()%uint64(len(sizes))],
		StrideElems:   []int{1, 2, 3, 8, 16, 64}[rng.Uint64()%6],
		Width:         cpu.Widths()[rng.Uint64()%3],
		Unroll:        1 + int(rng.Uint64()%8),
		WarmPasses:    1 + int(rng.Uint64()%3),
		MeasurePasses: 1 + int(rng.Uint64()%4),
	}
}

// sameHierarchy asserts that two hierarchies hold the same counters and
// the same AppendState.
func sameHierarchy(t *testing.T, got, want *cache.Hierarchy, ctx string) {
	t.Helper()
	var a, b cache.HierarchyStats
	got.ReadStats(&a)
	want.ReadStats(&b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counters %+v, want %+v", ctx, a, b)
	}
	if !statesEqual(got.AppendState(nil), want.AppendState(nil)) {
		t.Fatalf("%s: AppendState diverges", ctx)
	}
}

// Reset shares a Runner's allocation, not its state: after random
// traffic — measurements, then a store sweep that leaves dirty lines —
// a reset hierarchy holds a fresh one's AppendState and counters, and
// the next Run equals a fresh Runner's: result, counters and state.
// The mappings are stateless (identity, as LocalityProfile and
// OptimizationGrid use, and contiguous): Reset leaves a mapper's
// mappings alone.
func TestResetRunnerMatchesFresh(t *testing.T) {
	platforms := []string{"Snowball", "XeonX5550", "Tegra2", "ThunderX2"}
	mappers := []func() mem.Mapper{
		func() mem.Mapper { return nil },
		func() mem.Mapper { return mem.NewContiguousMapper(0) },
	}
	rng := xrand.New(31)
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		plat := platform.MustLookup(platforms[rng.Uint64()%uint64(len(platforms))])
		build := mappers[rng.Uint64()%uint64(len(mappers))]
		r, err := NewRunner(plat, build())
		if err != nil {
			t.Fatal(err)
		}
		for i := rng.Uint64() % 3; i > 0; i-- {
			if _, err := r.Run(randomCell(rng)); err != nil {
				t.Fatal(err)
			}
		}
		r.hier.AccessRun(rng.Uint64()%(1<<20), 8, 1+int(rng.Uint64()%(1<<16)), true)
		r.hier.Reset()
		fresh, err := NewRunner(plat, build())
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("trial %d (%s)", trial, plat.Name)
		sameHierarchy(t, r.hier, fresh.hier, ctx+" after Reset")
		cfg := randomCell(rng)
		got, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Run after Reset %+v, fresh Runner %+v", ctx, got, want)
		}
		sameHierarchy(t, r.hier, fresh.hier, ctx+" after Run")
	}
}
