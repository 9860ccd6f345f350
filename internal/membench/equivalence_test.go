package membench

import (
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
	"montblanc/internal/xrand"
)

// mapperSpec builds a fresh, independently seeded mapper per call so a
// scalar and a batched runner each own an identical world.
type mapperSpec struct {
	name  string
	build func(seed uint64) mem.Mapper
}

var mapperSpecs = []mapperSpec{
	{"identity", func(uint64) mem.Mapper { return nil }},
	{"contiguous", func(uint64) mem.Mapper { return mem.NewContiguousMapper(0) }},
	{"random", func(seed uint64) mem.Mapper { return mem.NewRandomMapper(seed, 1<<14) }},
	// A tiny physical pool oversubscribes the Snowball L1's two page
	// colours in nearly every draw: the §V.A.1 conflict regime.
	{"tiny-pool", func(seed uint64) mem.Mapper { return mem.NewRandomMapper(seed, 12) }},
}

// compareRuns asserts exact equivalence of one configuration between a
// batched and a scalar runner: identical cycles (bitwise), accesses,
// bandwidth, per-level stats, TLB/memory counters, and canonical
// hierarchy state.
func compareRuns(t *testing.T, batched, scalar *Runner, cfg Config, ctx string) {
	t.Helper()
	got, err := batched.Run(cfg)
	if err != nil {
		t.Fatalf("%s: batched: %v", ctx, err)
	}
	want, err := scalar.RunScalar(cfg)
	if err != nil {
		t.Fatalf("%s: scalar: %v", ctx, err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %v != scalar %v", ctx, got.Cycles, want.Cycles)
	}
	if got.Accesses != want.Accesses || got.Seconds != want.Seconds || got.Bandwidth != want.Bandwidth {
		t.Fatalf("%s: result diverges: %+v vs %+v", ctx, got, want)
	}
	bh, sh := batched.hier, scalar.hier
	for i := 0; i < bh.Depth(); i++ {
		if a, b := bh.Level(i).Stats(), sh.Level(i).Stats(); a != b {
			t.Fatalf("%s: level %d stats diverge: %+v vs %+v", ctx, i, a, b)
		}
	}
	if a, b := bh.Memory().Stats(), sh.Memory().Stats(); a != b {
		t.Fatalf("%s: memory stats diverge: %+v vs %+v", ctx, a, b)
	}
	bth, btm, _ := bh.TLBStats()
	sth, stm, _ := sh.TLBStats()
	if bth != sth || btm != stm {
		t.Fatalf("%s: TLB stats diverge: %d/%d vs %d/%d", ctx, bth, btm, sth, stm)
	}
	if !statesEqual(bh.AppendState(nil), sh.AppendState(nil)) {
		t.Fatalf("%s: canonical hierarchy state diverges", ctx)
	}
}

// The batched engine contract end to end: Run (line/page fast path plus
// periodic-pass memoization) is exactly equivalent to RunScalar over
// randomized sizes, strides, widths, unrolls, pass counts, platforms
// and page mappings.
func TestRunMatchesScalarRandomized(t *testing.T) {
	platforms := []string{"Snowball", "XeonX5550", "Tegra2", "ThunderX2"}
	sizes := []int{
		2 * units.KiB, 8 * units.KiB, 31 * units.KiB, 32 * units.KiB,
		50 * units.KiB, 64 * units.KiB, 100 * units.KiB, 256 * units.KiB, 1 * units.MiB,
	}
	strides := []int{1, 2, 3, 5, 8, 16, 33, 64}
	widths := []cpu.Width{cpu.W32, cpu.W64, cpu.W128}
	rng := xrand.New(7)
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		plat := platform.MustLookup(platforms[rng.Uint64()%uint64(len(platforms))])
		ms := mapperSpecs[rng.Uint64()%uint64(len(mapperSpecs))]
		seed := rng.Uint64()
		cfg := Config{
			ArrayBytes:    sizes[rng.Uint64()%uint64(len(sizes))],
			StrideElems:   strides[rng.Uint64()%uint64(len(strides))],
			Width:         widths[rng.Uint64()%3],
			Unroll:        1 + int(rng.Uint64()%8),
			WarmPasses:    1 + int(rng.Uint64()%3),
			MeasurePasses: 1 + int(rng.Uint64()%5),
		}
		batched, err := NewRunner(plat, ms.build(seed))
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewRunner(plat, ms.build(seed))
		if err != nil {
			t.Fatal(err)
		}
		ctx := plat.Name + "/" + ms.name
		compareRuns(t, batched, scalar, cfg, ctx)
		// Runner reuse (the Sweep pattern): a second, different
		// configuration on the same Runners must stay equivalent — both
		// start cold again, and a random mapper keeps its mappings.
		cfg2 := cfg
		cfg2.ArrayBytes = sizes[rng.Uint64()%uint64(len(sizes))]
		cfg2.StrideElems = strides[rng.Uint64()%uint64(len(strides))]
		compareRuns(t, batched, scalar, cfg2, ctx+"/second-run")
	}
}

// The §V.A.1 unlucky-page-colour cases must keep conflicting on the
// batched path: for an L1-sized array on the two-colour Snowball L1,
// unlucky random placements show L1 misses in the measured window where
// contiguous placement shows essentially none — and every case stays
// exactly equivalent to the scalar reference.
func TestPageColourConflictsPreserved(t *testing.T) {
	p := platform.MustLookup("Snowball")
	cfg := Config{ArrayBytes: 32 * units.KiB}
	contig, err := NewRunner(p, mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := contig.Run(cfg); err != nil {
		t.Fatal(err)
	}
	contigL1 := contig.hier.Level(0).Stats()
	conflicts := 0
	for seed := uint64(1); seed <= 8; seed++ {
		build := func() mem.Mapper { return mem.NewRandomMapper(seed, 64) }
		batched, err := NewRunner(p, build())
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewRunner(p, build())
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, batched, scalar, cfg, "colour-conflict")
		if batched.hier.Level(0).Stats().Misses > 4*contigL1.Misses+100 {
			conflicts++
		}
	}
	if conflicts == 0 {
		t.Fatal("no random placement produced L1 conflict misses; the batched engine erased §V.A.1")
	}
	if r := contigL1.MissRatio(); r > 0.001 {
		t.Errorf("contiguous placement missing at ratio %f", r)
	}
}

// Sweep and OptimizationGrid ride on Run; a direct spot-check that the
// high-level entry points agree with the scalar path too.
func TestHighLevelEntryPointsMatchScalar(t *testing.T) {
	p := platform.MustLookup("XeonX5550")
	for _, cfg := range []Config{
		{ArrayBytes: 50 * units.KiB, Width: cpu.W128, Unroll: 8},
		{ArrayBytes: 256 * units.KiB, StrideElems: 16},
	} {
		batched, err := NewRunner(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewRunner(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, batched, scalar, cfg, "entry-point")
	}
}
