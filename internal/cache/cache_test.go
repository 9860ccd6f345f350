package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"montblanc/internal/mem"
)

func mustHierarchy(t *testing.T, cfgs []Config, memLat int, tlb *mem.TLB) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfgs, memLat, tlb)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func tinyL1() Config {
	return Config{Name: "L1", Level: 1, Size: 1024, LineSize: 64, Associativity: 2, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := tinyL1()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "sz", Size: 1000, LineSize: 64, Associativity: 2},
		{Name: "ln", Size: 1024, LineSize: 60, Associativity: 2},
		{Name: "as", Size: 1024, LineSize: 64, Associativity: 0},
		{Name: "div", Size: 1024, LineSize: 64, Associativity: 5},
		{Name: "lat", Size: 1024, LineSize: 64, Associativity: 2, HitLatency: -1},
		{Name: "sub-line", Size: 32, LineSize: 64, Associativity: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
	// The widest set a stored recency rank can order, and one way more.
	widest := Config{Name: "widest", Size: maxWays * 64, LineSize: 64, Associativity: maxWays}
	if err := widest.Validate(); err != nil {
		t.Errorf("%d ways rejected: %v", maxWays, err)
	}
	tooWide := Config{Name: "too-wide", Size: 2 * maxWays * 64, LineSize: 64, Associativity: maxWays + 1}
	if err := tooWide.Validate(); err == nil || !strings.Contains(err.Error(), "too-wide") ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("%d ways: got %v, want a rank-width error naming the level", maxWays+1, err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	if cyc := h.Access(0, false); cyc != 101 {
		t.Errorf("cold access = %d cycles, want 101", cyc)
	}
	if cyc := h.Access(32, false); cyc != 1 {
		t.Errorf("same-line access = %d cycles, want 1", cyc)
	}
	st := h.Level(0).Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2-way, 8 sets of 64B lines. Lines 0, 512, 1024 all map to set 0.
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	h.Access(0, false)    // load A
	h.Access(512, false)  // load B
	h.Access(0, false)    // touch A (B becomes LRU)
	h.Access(1024, false) // load C, evicts B
	if cyc := h.Access(0, false); cyc != 1 {
		t.Error("A evicted despite being MRU")
	}
	if cyc := h.Access(512, false); cyc == 1 {
		t.Error("B survived despite being LRU")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	// Touch all 16 lines twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 1024; a += 64 {
			h.Access(a, false)
		}
	}
	st := h.Level(0).Stats()
	if st.Misses != 16 {
		t.Errorf("misses = %d, want 16 cold misses only", st.Misses)
	}
}

func TestCapacityThrashing(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	// Working set 2x the cache, sequential: every access in every pass
	// misses (LRU worst case).
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 2048; a += 64 {
			h.Access(a, false)
		}
	}
	st := h.Level(0).Stats()
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 under LRU thrashing", st.Hits)
	}
}

func TestTwoLevelLatencies(t *testing.T) {
	l1 := Config{Name: "L1", Level: 1, Size: 1024, LineSize: 64, Associativity: 2, HitLatency: 1}
	l2 := Config{Name: "L2", Level: 2, Size: 4096, LineSize: 64, Associativity: 4, HitLatency: 8}
	h := mustHierarchy(t, []Config{l1, l2}, 100, nil)
	// Cold: L1 miss + L2 miss + DRAM = 1+8+100.
	if cyc := h.Access(0, false); cyc != 109 {
		t.Errorf("cold = %d, want 109", cyc)
	}
	// Evict from L1 by touching 2KB more at same set... simpler: touch
	// addresses 0,512,1024 (set 0) to evict line 0 from L1; it remains
	// in L2, so re-access costs 1+8.
	h.Access(512, false)
	h.Access(1024, false)
	if cyc := h.Access(0, false); cyc != 9 {
		t.Errorf("L2 hit = %d, want 9", cyc)
	}
}

func TestWritebackCounted(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	h.Access(0, true)     // dirty line A in set 0
	h.Access(512, false)  // fill way 2 of set 0
	h.Access(1024, false) // evict A (dirty) -> writeback
	if wb := h.Level(0).Stats().Writebacks; wb != 1 {
		t.Errorf("writebacks = %d, want 1", wb)
	}
}

func TestFlushForcesMisses(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	h.Access(0, true)
	h.Flush()
	if cyc := h.Access(0, false); cyc != 101 {
		t.Errorf("post-flush access = %d, want 101", cyc)
	}
	if wb := h.Level(0).Stats().Writebacks; wb != 1 {
		t.Errorf("flush writebacks = %d, want 1", wb)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	h.Access(0, false)
	h.ResetStats()
	if cyc := h.Access(0, false); cyc != 1 {
		t.Error("ResetStats cleared cache contents")
	}
	st := h.Level(0).Stats()
	if st.Accesses != 1 || st.Hits != 1 {
		t.Errorf("stats after reset = %+v", st)
	}
}

// The §V.A.1 scenario: a 32KB 4-way physically-indexed L1 has 2 page
// colours. A 32KB array with contiguous physical pages fills the cache
// exactly; with random pages some colour is oversubscribed and the array
// conflicts with itself.
func TestPageColoringConflictMisses(t *testing.T) {
	l1 := Config{Name: "L1", Level: 1, Size: 32 << 10, LineSize: 32, Associativity: 4, HitLatency: 1}
	const arraySize = 32 << 10

	missRatioWith := func(mapper mem.Mapper) float64 {
		tlb := mem.NewTLB(0, 0, mapper) // pass-through, no TLB cost
		h, err := NewHierarchy([]Config{l1}, 60, tlb)
		if err != nil {
			t.Fatal(err)
		}
		// Warm.
		for a := uint64(0); a < arraySize; a += 4 {
			h.Access(a, false)
		}
		h.ResetStats()
		for pass := 0; pass < 4; pass++ {
			for a := uint64(0); a < arraySize; a += 4 {
				h.Access(a, false)
			}
		}
		return h.Level(0).Stats().MissRatio()
	}

	contig := missRatioWith(mem.NewContiguousMapper(0))
	if contig != 0 {
		t.Errorf("contiguous pages: steady-state miss ratio %f, want 0", contig)
	}

	// Find a seed with a skewed colour layout (most seeds qualify).
	worst := 0.0
	for seed := uint64(0); seed < 8; seed++ {
		if r := missRatioWith(mem.NewRandomMapper(seed, 1<<16)); r > worst {
			worst = r
		}
	}
	if worst <= 0.01 {
		t.Errorf("random pages never caused conflict misses (worst=%f)", worst)
	}
}

func TestHierarchyErrors(t *testing.T) {
	if _, err := NewHierarchy(nil, 100, nil); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewHierarchy([]Config{{Name: "bad", Size: 3}}, 100, nil); err == nil {
		t.Error("invalid level accepted")
	}
}

// Property: hits + misses == accesses at every level, for random traces.
func TestStatsConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		l1 := Config{Name: "L1", Level: 1, Size: 2048, LineSize: 64, Associativity: 2, HitLatency: 1}
		l2 := Config{Name: "L2", Level: 2, Size: 8192, LineSize: 64, Associativity: 4, HitLatency: 8}
		h, err := NewHierarchy([]Config{l1, l2}, 80, nil)
		if err != nil {
			return false
		}
		x := seed
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Access(x%(1<<16), x&1 == 0)
		}
		for i := 0; i < h.Depth(); i++ {
			st := h.Level(i).Stats()
			if st.Hits+st.Misses != st.Accesses {
				return false
			}
		}
		// L2 accesses == L1 misses (no prefetching in the model).
		return h.Level(1).Stats().Accesses == h.Level(0).Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation is deterministic for identical traces.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		run := func() (uint64, int) {
			h, _ := NewHierarchy([]Config{tinyL1()}, 100, nil)
			x := seed
			total := 0
			for i := 0; i < 300; i++ {
				x = x*2862933555777941757 + 3037000493
				total += h.Access(x%(1<<14), false)
			}
			return h.Level(0).Stats().Misses, total
		}
		m1, t1 := run()
		m2, t2 := run()
		return m1 == m2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Error("idle miss ratio != 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRatio() != 0.3 {
		t.Errorf("miss ratio = %f", s.MissRatio())
	}
}

// Levels may have different line sizes (Snowball: 32B lines; a
// hypothetical 64B L2): the hierarchy must still track containment.
func TestMixedLineSizes(t *testing.T) {
	l1 := Config{Name: "L1", Level: 1, Size: 1024, LineSize: 32, Associativity: 2, HitLatency: 1}
	l2 := Config{Name: "L2", Level: 2, Size: 8192, LineSize: 64, Associativity: 4, HitLatency: 8}
	h := mustHierarchy(t, []Config{l1, l2}, 100, nil)
	// Two adjacent 32B L1 lines share one 64B L2 line.
	h.Access(0, false)  // L1 miss, L2 miss
	h.Access(32, false) // L1 miss, L2 hit (same 64B line)
	l2stats := h.Level(1).Stats()
	if l2stats.Hits != 1 || l2stats.Misses != 1 {
		t.Errorf("L2 stats = %+v, want 1 hit 1 miss", l2stats)
	}
}

// A store-heavy workload generates writebacks bounded by the number of
// dirty lines that can exist.
func TestWritebackConservation(t *testing.T) {
	h := mustHierarchy(t, []Config{tinyL1()}, 100, nil)
	const span = 8192 // 8x the cache
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < span; a += 64 {
			h.Access(a, true)
		}
	}
	st := h.Level(0).Stats()
	// Every line evicted dirty must previously have been written: the
	// writeback count cannot exceed the store count.
	if st.Writebacks > st.Accesses {
		t.Errorf("writebacks %d exceed accesses %d", st.Writebacks, st.Accesses)
	}
	if st.Writebacks == 0 {
		t.Error("store-thrashing produced no writebacks")
	}
}
