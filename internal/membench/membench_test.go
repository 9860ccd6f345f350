package membench

import (
	"slices"
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/osmodel"
	"montblanc/internal/papi"
	"montblanc/internal/platform"
	"montblanc/internal/stats"
	"montblanc/internal/units"
)

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{ArrayBytes: 1024}.withDefaults()
	if c.StrideElems != 1 || c.Width != cpu.W32 || c.Unroll != 1 ||
		c.WarmPasses != 2 || c.MeasurePasses != 2 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if err := (Config{ArrayBytes: 2, Width: cpu.W64}).Validate(); err == nil {
		t.Error("sub-element array accepted")
	}
	if err := (Config{ArrayBytes: 1024}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunBasics(t *testing.T) {
	p := platform.Snowball()
	res, err := Run(p, nil, Config{ArrayBytes: 8 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 2*8*units.KiB/4 {
		t.Errorf("accesses = %d", res.Accesses)
	}
	if res.Bandwidth <= 0 || res.Seconds <= 0 {
		t.Errorf("non-positive results: %+v", res)
	}
	// After warm-up an 8KB array fits the 32KB L1: misses ~ 0.
	if r := res.Counters.MissRatio(); r > 0.001 {
		t.Errorf("L1-resident array missing at ratio %f", r)
	}
}

// Figure 5a's background shape: bandwidth drops when the array exceeds
// the 32KB L1.
func TestBandwidthDropsBeyondL1(t *testing.T) {
	p := platform.Snowball()
	small, err := Run(p, nil, Config{ArrayBytes: 16 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(p, nil, Config{ArrayBytes: 48 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	if big.Bandwidth >= small.Bandwidth {
		t.Errorf("48KB bandwidth %.0f >= 16KB bandwidth %.0f",
			big.Bandwidth, small.Bandwidth)
	}
}

// Spatial locality: striding past the cache line makes every access miss
// and effective bandwidth collapse.
func TestStridePenalty(t *testing.T) {
	p := platform.Snowball()
	unit, err := Run(p, nil, Config{ArrayBytes: 256 * units.KiB, StrideElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	strided, err := Run(p, nil, Config{ArrayBytes: 256 * units.KiB, StrideElems: 16})
	if err != nil {
		t.Fatal(err)
	}
	if strided.Bandwidth >= unit.Bandwidth/2 {
		t.Errorf("stride-16 bandwidth %.0f should be far below stride-1 %.0f",
			strided.Bandwidth, unit.Bandwidth)
	}
}

func TestDeterminism(t *testing.T) {
	p := platform.XeonX5550()
	cfg := Config{ArrayBytes: 50 * units.KiB, Width: cpu.W64, Unroll: 8}
	a, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bandwidth != b.Bandwidth || a.Cycles != b.Cycles {
		t.Error("identical configurations disagreed")
	}
}

// The §V.A.1 reproducibility story, end to end: with random physical
// pages, run-to-run bandwidth of a 32KB array varies far more than with
// contiguous pages.
func TestPageAllocationRunToRunVariance(t *testing.T) {
	p := platform.Snowball()
	const runs = 12
	bandwidthsUnder := func(policy osmodel.PagePolicy) []float64 {
		var bws []float64
		for seed := uint64(0); seed < runs; seed++ {
			res, err := Run(p, policy.NewMapper(seed), Config{ArrayBytes: 32 * units.KiB})
			if err != nil {
				t.Fatal(err)
			}
			bws = append(bws, res.Bandwidth)
		}
		return bws
	}
	contig := bandwidthsUnder(osmodel.ContiguousPages)
	random := bandwidthsUnder(osmodel.RandomPages)
	cvContig := stats.CoeffVar(contig)
	cvRandom := stats.CoeffVar(random)
	if cvRandom < 4*cvContig+0.01 {
		t.Errorf("random pages CV %.4f not clearly above contiguous CV %.4f",
			cvRandom, cvContig)
	}
	// And random never beats contiguous meaningfully.
	if slices.Max(random) > slices.Max(contig)*1.05 {
		t.Error("random placement should not outperform contiguous")
	}
}

// Figure 6a: on the Xeon, wider elements and unrolling monotonically
// improve effective bandwidth at 50KB/stride 1.
func TestFigure6XeonMonotone(t *testing.T) {
	grid, err := OptimizationGrid(platform.XeonX5550(), 50*units.KiB, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 8} {
		prev := 0.0
		for _, w := range cpu.Widths() {
			g, ok := Find(grid, w, u)
			if !ok {
				t.Fatalf("missing grid point %v/%d", w, u)
			}
			if g.Bandwidth <= prev {
				t.Errorf("Xeon %v unroll=%d: bandwidth %.2fGB/s not above narrower width",
					w, u, g.Bandwidth/1e9)
			}
			prev = g.Bandwidth
		}
	}
	for _, w := range cpu.Widths() {
		u1, _ := Find(grid, w, 1)
		u8, _ := Find(grid, w, 8)
		if u8.Bandwidth <= u1.Bandwidth {
			t.Errorf("Xeon %v: unrolling did not help (%.2f vs %.2f GB/s)",
				w, u8.Bandwidth/1e9, u1.Bandwidth/1e9)
		}
	}
}

// Figure 6b: on the Snowball, 128-bit vectorization is no better than
// 32-bit, and unrolling *degrades* 128-bit bandwidth; 64-bit unrolled is
// the best configuration.
func TestFigure6SnowballPathologies(t *testing.T) {
	grid, err := OptimizationGrid(platform.Snowball(), 50*units.KiB, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	w32u1, _ := Find(grid, cpu.W32, 1)
	w128u1, _ := Find(grid, cpu.W128, 1)
	w128u8, _ := Find(grid, cpu.W128, 8)
	w64u1, _ := Find(grid, cpu.W64, 1)
	w64u8, _ := Find(grid, cpu.W64, 8)

	// "vectorizing with 128 is similar to using 32 bit elements"
	if ratio := w128u1.Bandwidth / w32u1.Bandwidth; ratio > 1.4 || ratio < 0.6 {
		t.Errorf("ARM 128b/32b ratio = %.2f, want ~1", ratio)
	}
	// "loop unrolling may even dramatically degrade performance"
	if w128u8.Bandwidth >= w128u1.Bandwidth {
		t.Errorf("ARM 128b: unrolling helped (%.0f vs %.0f)",
			w128u8.Bandwidth, w128u1.Bandwidth)
	}
	// "the best configuration on ARM is obtained when using 64 bits and
	// loop unrolling"
	best := w64u8.Bandwidth
	for _, g := range grid {
		if g.Bandwidth > best {
			t.Errorf("ARM best is %v/unroll=%d, want 64b/unroll=8", g.Width, g.Unroll)
		}
	}
	// "increasing element size from 32 bits to 64 bits practically
	// doubles the bandwidths" (stall cycles keep the model slightly
	// below a perfect 2x).
	if ratio := w64u1.Bandwidth / w32u1.Bandwidth; ratio < 1.5 || ratio > 2.5 {
		t.Errorf("ARM 64b/32b ratio = %.2f, want ~2", ratio)
	}
}

// The two platforms differ in *scale* as in the paper's figures:
// Xeon bandwidths are an order of magnitude above the Snowball's.
func TestFigure6ScaleGap(t *testing.T) {
	xeon, err := Run(platform.XeonX5550(), nil,
		Config{ArrayBytes: 50 * units.KiB, Width: cpu.W128, Unroll: 8})
	if err != nil {
		t.Fatal(err)
	}
	arm, err := Run(platform.Snowball(), nil,
		Config{ArrayBytes: 50 * units.KiB, Width: cpu.W64, Unroll: 8})
	if err != nil {
		t.Fatal(err)
	}
	if gap := xeon.Bandwidth / arm.Bandwidth; gap < 5 || gap > 30 {
		t.Errorf("best-config bandwidth gap = %.1fx, want 5-30x", gap)
	}
	// Order of magnitude targets from the figure axes (GB/s):
	if xeon.Bandwidth < 5e9 || xeon.Bandwidth > 40e9 {
		t.Errorf("Xeon best = %.2f GB/s, want O(10)", xeon.Bandwidth/1e9)
	}
	if arm.Bandwidth < 0.5e9 || arm.Bandwidth > 4e9 {
		t.Errorf("ARM best = %.2f GB/s, want O(1)", arm.Bandwidth/1e9)
	}
}

func TestSweepRandomizedButComplete(t *testing.T) {
	p := platform.Snowball()
	env := osmodel.DefaultEnvironment(3)
	sizes := []int{4 * units.KiB, 16 * units.KiB, 48 * units.KiB}
	ms, err := Sweep(p, env, sizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 12 {
		t.Fatalf("measurements = %d, want 12", len(ms))
	}
	counts := map[int]int{}
	inOrder := true
	for i, m := range ms {
		counts[m.SizeBytes]++
		if m.Seq != i {
			t.Error("Seq not in wall-clock order")
		}
		if i > 0 && ms[i].SizeBytes < ms[i-1].SizeBytes {
			inOrder = false
		}
	}
	for _, s := range sizes {
		if counts[s] != 4 {
			t.Errorf("size %d measured %d times, want 4", s, counts[s])
		}
	}
	if inOrder {
		t.Error("sweep order not randomized")
	}
}

func TestSweepRTProducesDegradedRuns(t *testing.T) {
	p := platform.Snowball()
	sizes := make([]int, 25)
	for i := range sizes {
		sizes[i] = (i + 1) * 2 * units.KiB
	}
	// Find a seed whose degraded window intersects the sweep.
	for seed := uint64(0); seed < 12; seed++ {
		env := osmodel.ARMRealTimeEnvironment(seed)
		ms, err := Sweep(p, env, sizes, 8)
		if err != nil {
			t.Fatal(err)
		}
		var marks []bool
		var bws []float64
		for _, m := range ms {
			marks = append(marks, m.Degraded)
			bws = append(bws, m.Bandwidth)
		}
		st := stats.FindStreaks(marks)
		if st.Total == 0 {
			continue
		}
		// Degraded measurements are consecutive (few episodes).
		if st.Count > 4 {
			t.Errorf("seed %d: %d degraded episodes", seed, st.Count)
		}
		// And degraded bandwidths are far below normal ones.
		modes := stats.TwoModes(bws)
		if modes.Bimodal && (modes.Ratio < 2.5 || modes.Ratio > 9) {
			t.Errorf("seed %d: mode ratio %.1f", seed, modes.Ratio)
		}
		return
	}
	t.Fatal("no seed produced a degraded episode within the sweep")
}

func TestRunnerReportsCounters(t *testing.T) {
	p := platform.Snowball()
	r, err := NewRunner(p, mem.NewContiguousMapper(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(Config{ArrayBytes: 64 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(papi.L1_DCA) == 0 {
		t.Error("no L1 accesses recorded")
	}
	if res.Counters.Get(papi.L2_DCA) == 0 {
		t.Error("64KB working set should reach L2")
	}
}

func TestFindMissing(t *testing.T) {
	if _, ok := Find(nil, cpu.W32, 1); ok {
		t.Error("Find on empty grid succeeded")
	}
}
