package mem

import (
	"testing"
	"testing/quick"
)

func TestContiguousMapper(t *testing.T) {
	m := NewContiguousMapper(0x10000)
	if pa := m.Translate(0); pa != 0x10000 {
		t.Errorf("Translate(0) = %#x", pa)
	}
	if pa := m.Translate(123); pa != 0x10000+123 {
		t.Errorf("Translate(123) = %#x", pa)
	}
	// The base must be page aligned even if constructed unaligned.
	m2 := NewContiguousMapper(0x10007)
	if pa := m2.Translate(0); pa != 0x10000 {
		t.Errorf("Translate(0) = %#x, want the aligned base 0x10000", pa)
	}
}

func TestRandomMapperSticky(t *testing.T) {
	m := NewRandomMapper(42, 1024)
	pa1 := m.Translate(0x3000)
	pa2 := m.Translate(0x3000 + 17)
	if pa1/PageSize != pa2/PageSize {
		t.Error("same virtual page mapped to different physical pages")
	}
	if pa2%PageSize != (0x3000+17)%PageSize {
		t.Error("page offset not preserved")
	}
	// Repeated translation is stable.
	if m.Translate(0x3000) != pa1 {
		t.Error("mapping not sticky")
	}
}

func TestRandomMapperSeedReproducible(t *testing.T) {
	a := NewRandomMapper(7, 4096)
	b := NewRandomMapper(7, 4096)
	for p := uint64(0); p < 64; p++ {
		if a.Translate(p*PageSize) != b.Translate(p*PageSize) {
			t.Fatalf("same seed produced different mapping at page %d", p)
		}
	}
}

func TestRandomMapperResetChangesMapping(t *testing.T) {
	m := NewRandomMapper(7, 1<<16)
	before := make([]uint64, 32)
	for p := range before {
		before[p] = m.Translate(uint64(p) * PageSize)
	}
	m.Reset()
	changed := 0
	for p := range before {
		if m.Translate(uint64(p)*PageSize) != before[p] {
			changed++
		}
	}
	if changed < 16 {
		t.Errorf("Reset changed only %d/32 mappings", changed)
	}
}

func TestPageColors(t *testing.T) {
	// Cortex-A9 L1: 32KB 4-way => way size 8KB => 2 colours.
	if c := PageColors(32<<10, 4); c != 2 {
		t.Errorf("A9 L1 colours = %d, want 2", c)
	}
	// Nehalem L1: 32KB 8-way => way size 4KB => 1 colour (immune).
	if c := PageColors(32<<10, 8); c != 1 {
		t.Errorf("Nehalem L1 colours = %d, want 1", c)
	}
	// L2 512KB 8-way => 16 colours.
	if c := PageColors(512<<10, 8); c != 16 {
		t.Errorf("L2 colours = %d, want 16", c)
	}
	if c := PageColors(1024, 0); c != 0 {
		t.Errorf("zero associativity colours = %d, want 0", c)
	}
}

// ColorSpread reports, for the first nPages pages of a virtual buffer,
// how many pages land on each colour. A perfectly balanced spread means
// no allocation-induced conflicts; heavy skew predicts conflict misses.
func ColorSpread(m Mapper, nPages, colors int) []int {
	counts := make([]int, colors)
	for p := 0; p < nPages; p++ {
		pa := m.Translate(uint64(p) * PageSize)
		counts[ColorOf(pa, colors)]++
	}
	return counts
}

// MaxColorLoad returns the maximum per-colour page count in spread.
func MaxColorLoad(spread []int) int {
	m := 0
	for _, c := range spread {
		if c > m {
			m = c
		}
	}
	return m
}

func TestColorSpreadContiguousIsBalanced(t *testing.T) {
	m := NewContiguousMapper(0)
	spread := ColorSpread(m, 8, 2)
	if spread[0] != 4 || spread[1] != 4 {
		t.Errorf("contiguous spread = %v, want [4 4]", spread)
	}
}

func TestColorSpreadRandomCanSkew(t *testing.T) {
	// With 2 colours and 8 pages, at least one random seed in a small
	// range must produce an unbalanced spread (probability of balance
	// per seed is C(8,4)/2^8 ≈ 27%).
	skewed := false
	for seed := uint64(0); seed < 16 && !skewed; seed++ {
		m := NewRandomMapper(seed, 1<<16)
		spread := ColorSpread(m, 8, 2)
		if MaxColorLoad(spread) >= 6 {
			skewed = true
		}
	}
	if !skewed {
		t.Error("no random seed produced a skewed colour spread; allocator too uniform")
	}
}

func TestColorOf(t *testing.T) {
	if c := ColorOf(0, 2); c != 0 {
		t.Errorf("ColorOf(0) = %d", c)
	}
	if c := ColorOf(PageSize, 2); c != 1 {
		t.Errorf("ColorOf(page 1) = %d", c)
	}
	if c := ColorOf(3*PageSize, 2); c != 1 {
		t.Errorf("ColorOf(page 3) = %d", c)
	}
	if c := ColorOf(12345, 1); c != 0 {
		t.Errorf("single colour must always be 0")
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4, 30, NewContiguousMapper(0))
	// First touch: miss.
	if _, cyc := tlb.Translate(0); cyc != 30 {
		t.Errorf("first access cost %d, want 30", cyc)
	}
	// Same page: hit.
	if _, cyc := tlb.Translate(100); cyc != 0 {
		t.Errorf("same-page access cost %d, want 0", cyc)
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2, 30, NewContiguousMapper(0))
	tlb.Translate(0 * PageSize) // miss, load page 0
	tlb.Translate(1 * PageSize) // miss, load page 1
	tlb.Translate(0 * PageSize) // hit page 0 (now MRU)
	tlb.Translate(2 * PageSize) // miss, evicts page 1 (LRU)
	if _, cyc := tlb.Translate(0 * PageSize); cyc != 0 {
		t.Error("page 0 should have survived eviction")
	}
	if _, cyc := tlb.Translate(1 * PageSize); cyc != 30 {
		t.Error("page 1 should have been evicted")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(4, 30, NewContiguousMapper(0))
	tlb.Translate(0)
	tlb.Flush()
	if _, cyc := tlb.Translate(0); cyc != 30 {
		t.Error("flush did not invalidate entries")
	}
	hits, misses := tlb.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats after flush = %d/%d", hits, misses)
	}
}

func TestTLBDisabled(t *testing.T) {
	tlb := NewTLB(0, 30, NewContiguousMapper(0x1000))
	pa, cyc := tlb.Translate(5)
	if cyc != 0 || pa != 0x1000+5 {
		t.Errorf("disabled TLB: pa=%#x cyc=%d", pa, cyc)
	}
	nilTLB := NewTLB(4, 30, nil)
	if pa, cyc := nilTLB.Translate(5); pa != 5 || cyc != 0 {
		t.Errorf("nil-mapper TLB: pa=%#x cyc=%d", pa, cyc)
	}
}

// Property: translation preserves the page offset for every mapper.
func TestTranslatePreservesOffsetProperty(t *testing.T) {
	f := func(seed uint64, vaRaw uint64) bool {
		va := vaRaw % (1 << 30)
		rm := NewRandomMapper(seed, 1<<16)
		cm := NewContiguousMapper(uint64(seed) * PageSize)
		return rm.Translate(va)%PageSize == va%PageSize &&
			cm.Translate(va)%PageSize == va%PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TLB translation agrees with the raw mapper for any sequence.
func TestTLBMatchesMapperProperty(t *testing.T) {
	f := func(seed uint64) bool {
		mapper := NewRandomMapper(seed, 1<<14)
		shadow := NewRandomMapper(seed, 1<<14)
		tlb := NewTLB(8, 25, mapper)
		rng := seed
		for i := 0; i < 200; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			va := rng % (1 << 24)
			pa, _ := tlb.Translate(va)
			if pa != shadow.Translate(va) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
