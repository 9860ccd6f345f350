package cache

import (
	"fmt"
	"testing"

	"montblanc/internal/mem"
	"montblanc/internal/xrand"
)

// clockCache is the reference LRU: the clock-stamp engine that stored
// ranks replaced. Every access bumps a per-level clock and stamps the
// touched line; the victim is the last invalid way, else the valid way
// with the oldest stamp; appendState derives each line's rank by
// counting the ways of its set with older stamps, O(ways²) per set.
type clockCache struct {
	cfg          Config
	lineShift    uint
	setBits      uint
	setMask      uint64
	tags         []uint64
	valid, dirty []bool
	used         []uint64
	clock        uint64
	stats        Stats
}

func newClockCache(cfg Config) *clockCache {
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Associativity
	c := &clockCache{
		cfg:   cfg,
		tags:  make([]uint64, nLines),
		valid: make([]bool, nLines),
		dirty: make([]bool, nLines),
		used:  make([]uint64, nLines),
	}
	for 1<<c.lineShift < cfg.LineSize {
		c.lineShift++
	}
	for 1<<c.setBits < nSets {
		c.setBits++
	}
	c.setMask = uint64(nSets - 1)
	return c
}

func (c *clockCache) appendState(dst []uint64) []uint64 {
	assoc := c.cfg.Associativity
	for base := 0; base < len(c.tags); base += assoc {
		for w := 0; w < assoc; w++ {
			i := base + w
			rank := uint64(0)
			for v := 0; v < assoc; v++ {
				if c.used[base+v] < c.used[i] {
					rank++
				}
			}
			flags := rank << 2
			if c.valid[i] {
				flags |= 2
			}
			if c.dirty[i] {
				flags |= 1
			}
			dst = append(dst, c.tags[i], flags)
		}
	}
	return dst
}

// clockHierarchy stacks clockCache levels over DRAM with the recursive
// fill of the original engine, behind the same TLB model.
type clockHierarchy struct {
	tlb    *mem.TLB
	levels []*clockCache
	memLat int
	mem    Stats
}

func (h *clockHierarchy) access(va uint64, write bool) int {
	pa, cost := va, 0
	if h.tlb != nil {
		pa, cost = h.tlb.Translate(va)
	}
	return cost + h.fill(0, pa, write)
}

// fill looks pa up at level i, recursing into the level below (DRAM
// past the last) on a miss before replacing the victim.
func (h *clockHierarchy) fill(i int, pa uint64, write bool) int {
	if i == len(h.levels) {
		h.mem.Accesses++
		h.mem.Misses++
		return h.memLat
	}
	c := h.levels[i]
	c.stats.Accesses++
	c.clock++
	set := (pa >> c.lineShift) & c.setMask
	tag := pa >> (c.lineShift + c.setBits)
	base := int(set) * c.cfg.Associativity
	victim, victimUsed := base, ^uint64(0)
	for w := 0; w < c.cfg.Associativity; w++ {
		j := base + w
		if c.valid[j] && c.tags[j] == tag {
			c.stats.Hits++
			c.used[j] = c.clock
			if write {
				c.dirty[j] = true
			}
			return c.cfg.HitLatency
		}
		if !c.valid[j] {
			victim, victimUsed = j, 0
		} else if c.used[j] < victimUsed {
			victim, victimUsed = j, c.used[j]
		}
	}
	c.stats.Misses++
	cost := c.cfg.HitLatency + h.fill(i+1, pa, false)
	if c.valid[victim] && c.dirty[victim] {
		c.stats.Writebacks++
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.dirty[victim] = write
	c.used[victim] = c.clock
	return cost
}

func (h *clockHierarchy) appendState(dst []uint64) []uint64 {
	for _, c := range h.levels {
		dst = c.appendState(dst)
	}
	if h.tlb != nil {
		dst = h.tlb.AppendState(dst)
	}
	return dst
}

// rankTwins builds a stored-rank hierarchy and its clock-stamp reference
// over identical levels, TLBs and mappers. Levels are built unvalidated
// so associativities that do not divide a power-of-two size (3, 12) can
// be exercised too; every shape still has a power-of-two set count.
func rankTwins(levels []Config, memLat int, mapper func() mem.Mapper) (*Hierarchy, *clockHierarchy) {
	h := &Hierarchy{mem: &Memory{Latency: memLat}}
	ref := &clockHierarchy{memLat: memLat}
	if m := mapper(); m != nil {
		h.tlb = mem.NewTLB(8, 30, m)
		ref.tlb = mem.NewTLB(8, 30, mapper())
	}
	for _, cfg := range levels {
		h.levels = append(h.levels, newCache(cfg))
		ref.levels = append(ref.levels, newClockCache(cfg))
	}
	return h, ref
}

func compareWithClock(t *testing.T, h *Hierarchy, ref *clockHierarchy, ctx string) {
	t.Helper()
	for i, c := range ref.levels {
		if got := h.Level(i).Stats(); got != c.stats {
			t.Fatalf("%s: level %d stats %+v, clock reference %+v", ctx, i, got, c.stats)
		}
	}
	if got := h.Memory().Stats(); got != ref.mem {
		t.Fatalf("%s: memory stats %+v, clock reference %+v", ctx, got, ref.mem)
	}
	if ref.tlb != nil {
		hh, hm, _ := h.TLBStats()
		rh, rm := ref.tlb.Stats()
		if hh != rh || hm != rm {
			t.Fatalf("%s: TLB stats %d/%d, clock reference %d/%d", ctx, hh, hm, rh, rm)
		}
	}
	got, want := h.AppendState(nil), ref.appendState(nil)
	if len(got) != len(want) {
		t.Fatalf("%s: %d state words, clock reference %d", ctx, len(got), len(want))
	}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("%s: state word %d is %#x, clock reference %#x", ctx, w, got[w], want[w])
		}
	}
}

// Stored ranks against the clock-stamp reference: over associativities
// 1, 3, 12, 16 and 512, one and two levels with mixed line sizes,
// identity, random and tiny-pool mappers, loads and stores, and scalar
// and batched traffic, every access costs the same latency, every level
// counts the same events, and AppendState emits the same words the
// O(ways²) derivation does.
func TestStoredRanksMatchClockReference(t *testing.T) {
	mappers := []struct {
		name  string
		build func(seed uint64) func() mem.Mapper
	}{
		{"identity", func(uint64) func() mem.Mapper { return func() mem.Mapper { return nil } }},
		{"random", func(seed uint64) func() mem.Mapper {
			return func() mem.Mapper { return mem.NewRandomMapper(seed, 1<<12) }
		}},
		{"tiny-pool", func(seed uint64) func() mem.Mapper {
			return func() mem.Mapper { return mem.NewRandomMapper(seed, 8) }
		}},
	}
	rng := xrand.New(3)
	level := func(name string, n, assoc int) Config {
		line := []int{16, 32, 64}[rng.Uint64()%3]
		sets := []int{1, 4, 16}[rng.Uint64()%3]
		return Config{Name: name, Level: n, Size: sets * assoc * line, LineSize: line,
			Associativity: assoc, HitLatency: 1 + int(rng.Uint64()%20)}
	}
	for _, assoc := range []int{1, 3, 12, 16, 512} {
		for _, m := range mappers {
			for depth := 1; depth <= 2; depth++ {
				levels := []Config{level("L1", 1, assoc)}
				if depth == 2 {
					below := []int{1, 3, 12, 16, 512}[rng.Uint64()%5]
					levels = append(levels, level("L2", 2, below))
				}
				seed := rng.Uint64()
				h, ref := rankTwins(levels, 100+int(seed%100), m.build(seed))
				ctx := fmt.Sprintf("%d-way/%s/%d levels", assoc, m.name, depth)
				for op := 0; op < 40; op++ {
					s := randomSegment(rng)
					switch k := rng.Uint64() % 20; {
					case k < 10:
						va := s.va
						for i := 0; i < s.count; i++ {
							if got, want := h.Access(va, s.write), ref.access(va, s.write); got != want {
								t.Fatalf("%s op %d access %d: latency %d, clock reference %d", ctx, op, i, got, want)
							}
							va += uint64(s.stride)
						}
					default:
						want := RunResult{}
						va := s.va
						for i := 0; i < s.count; i++ {
							lat := ref.access(va, s.write)
							want.Accesses++
							want.Latency += uint64(lat)
							if extra := lat - levels[0].HitLatency; extra > 0 {
								want.Extra += uint64(extra)
							}
							va += uint64(s.stride)
						}
						if got := h.AccessRun(s.va, s.stride, s.count, s.write); got != want {
							t.Fatalf("%s op %d (%+v): run %+v, clock reference %+v", ctx, op, s, got, want)
						}
					}
					compareWithClock(t, h, ref, fmt.Sprintf("%s op %d", ctx, op))
				}
			}
		}
	}
}

// AccessRun on a warm hierarchy allocates nothing: ranks, tags and
// counters all live in the hierarchy's own arrays.
func TestAccessRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	h := hierCfg{
		levels: []Config{
			{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 4, HitLatency: 2},
			{Name: "L2", Level: 2, Size: 65536, LineSize: 64, Associativity: 16, HitLatency: 12},
		},
		memLatency: 100,
		tlbEntries: 8, tlbPenalty: 25, mapper: 2, seed: 7,
	}.build(t)
	traffic := func() {
		h.AccessRun(0, 8, 1<<15, false)
		h.AccessRun(1<<16, 64, 1<<12, true)
		h.AccessRun(3, 7, 5000, false)
		h.AccessRun(1<<17, 0, 100, true)
		h.AccessRun(1<<18, -16, 500, false)
	}
	traffic() // map every page the runs touch
	if allocs := testing.AllocsPerRun(5, traffic); allocs != 0 {
		t.Errorf("warm AccessRun allocates %.1f per call set, want 0", allocs)
	}
}
