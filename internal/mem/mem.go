// Package mem models the virtual-memory layer that the paper identifies
// as a major source of irreproducibility on ARM platforms (§V.A.1):
// depending on how the OS allocates physical pages, an array that fits
// the 32 KB L1 cache may or may not map onto conflicting cache sets.
//
// The package provides virtual→physical address translation with
// pluggable page-allocation policies and a small TLB model.
package mem

import (
	"fmt"

	"montblanc/internal/xrand"
)

// PageSize is the page granularity used by all allocators (4 KiB, as on
// both the Snowball's Linaro kernel and the Xeon's Debian kernel).
const PageSize = 4096

// Mapper translates virtual addresses to physical addresses.
//
// Implementations must be page-granular (all addresses within one
// virtual page map into one physical page, offset-preserving) and
// idempotent (translating the same address twice yields the same
// physical address and the same mapper state). The batched access path
// (cache.Hierarchy.AccessRun) relies on both properties to translate
// once per page instead of once per access.
type Mapper interface {
	// Translate returns the physical address backing va, establishing a
	// mapping on first touch.
	Translate(va uint64) uint64
	// Reset drops all mappings, simulating a fresh process.
	Reset()
}

// ContiguousMapper maps virtual pages to consecutive physical pages
// starting at a fixed base: the "lucky" allocation in which page colours
// follow virtual layout and an L1-sized array never conflicts with
// itself. This is the behaviour the paper implicitly assumes on x86
// for warmed-up runs.
type ContiguousMapper struct {
	base uint64 // physical base address, page aligned
}

// NewContiguousMapper returns a mapper with physical base base, rounded
// down to a page boundary. The zero ContiguousMapper has base 0.
func NewContiguousMapper(base uint64) *ContiguousMapper {
	return &ContiguousMapper{base: base &^ (PageSize - 1)}
}

// Translate implements Mapper.
func (m *ContiguousMapper) Translate(va uint64) uint64 { return m.base + va }

// Reset implements Mapper. Contiguous mappings are stateless.
func (m *ContiguousMapper) Reset() {}

// RandomMapper assigns each virtual page a pseudo-random physical page
// on first touch: the "unlucky" ARM behaviour in which nonconsecutive
// physical pages around the L1 size cause conflict misses. Mappings are
// sticky until Reset, reproducing the paper's observation that within
// one run the OS kept reusing the same pages (malloc/free returning the
// same memory), so intra-run noise was low while run-to-run behaviour
// varied wildly.
type RandomMapper struct {
	rng      *xrand.Rand
	seed     uint64
	physPool uint64 // number of physical pages to draw from
	pages    map[uint64]uint64
	nextDraw int
}

// NewRandomMapper returns a mapper drawing physical pages uniformly from
// a pool of poolPages pages, seeded with seed. A fresh seed models a
// fresh boot/run; Reset re-rolls the mapping with a derived seed,
// modelling a new process in the same booted system.
func NewRandomMapper(seed uint64, poolPages int) *RandomMapper {
	if poolPages <= 0 {
		poolPages = 1 << 16 // 256 MiB pool by default
	}
	return &RandomMapper{
		rng:      xrand.New(seed),
		seed:     seed,
		physPool: uint64(poolPages),
		pages:    make(map[uint64]uint64),
	}
}

// Translate implements Mapper.
func (m *RandomMapper) Translate(va uint64) uint64 {
	vpn := va / PageSize
	ppn, ok := m.pages[vpn]
	if !ok {
		ppn = m.rng.Uint64() % m.physPool
		m.pages[vpn] = ppn
	}
	return ppn*PageSize + va%PageSize
}

// Reset implements Mapper: drops mappings and derives a new random
// stream, as a new process image would.
func (m *RandomMapper) Reset() {
	m.nextDraw++
	m.rng = xrand.New(m.seed + uint64(m.nextDraw)*0x9e3779b97f4a7c15)
	m.pages = make(map[uint64]uint64)
}

// PageColors returns the number of distinct page colours for a
// physically-indexed cache of the given size and associativity: the
// number of pages that make up one way. If <= 1 every allocation is
// equivalent and physical placement cannot cause extra conflicts.
func PageColors(cacheSize, associativity int) int {
	if associativity <= 0 {
		return 0
	}
	waySize := cacheSize / associativity
	colors := waySize / PageSize
	if colors < 1 {
		return 1
	}
	return colors
}

// ColorOf returns the page colour of physical address pa for a cache
// with the given number of colours.
func ColorOf(pa uint64, colors int) int {
	if colors <= 1 {
		return 0
	}
	return int((pa / PageSize) % uint64(colors))
}

// TLB models a small fully-associative translation lookaside buffer with
// LRU replacement. It charges MissPenalty cycles per miss and relies on
// a Mapper for the actual translation.
type TLB struct {
	Entries     int
	MissPenalty int // cycles

	mapper  Mapper
	slots   []tlbSlot
	clock   uint64
	hits    uint64
	misses  uint64
	enabled bool
}

type tlbSlot struct {
	vpn   uint64
	ppn   uint64
	valid bool
	used  uint64
}

// NewTLB returns a TLB with the given entry count and miss penalty,
// backed by mapper. A nil mapper or entries <= 0 yields a pass-through
// TLB that never misses (useful to disable the model).
func NewTLB(entries, missPenalty int, mapper Mapper) *TLB {
	t := &TLB{Entries: entries, MissPenalty: missPenalty, mapper: mapper}
	if mapper != nil && entries > 0 {
		t.slots = make([]tlbSlot, entries)
		t.enabled = true
	}
	return t
}

// Translate returns the physical address for va and the cycle cost of
// the translation (0 on hit, MissPenalty on miss).
func (t *TLB) Translate(va uint64) (pa uint64, cycles int) {
	pa, cycles, _ = t.translate(va)
	return pa, cycles
}

// translate is Translate returning also the slot index holding the
// mapping afterwards (-1 when the TLB is pass-through).
func (t *TLB) translate(va uint64) (pa uint64, cycles, slot int) {
	if !t.enabled {
		if t.mapper != nil {
			return t.mapper.Translate(va), 0, -1
		}
		return va, 0, -1
	}
	t.clock++
	vpn := va / PageSize
	lruIdx, lruUsed := 0, ^uint64(0)
	for i := range t.slots {
		s := &t.slots[i]
		if s.valid && s.vpn == vpn {
			s.used = t.clock
			t.hits++
			return s.ppn*PageSize + va%PageSize, 0, i
		}
		if !s.valid {
			lruIdx, lruUsed = i, 0
		} else if s.used < lruUsed {
			lruIdx, lruUsed = i, s.used
		}
	}
	t.misses++
	pa = t.mapper.Translate(va)
	t.slots[lruIdx] = tlbSlot{vpn: vpn, ppn: pa / PageSize, valid: true, used: t.clock}
	return pa, t.MissPenalty, lruIdx
}

// TranslateRun translates the first of n accesses that all fall on the
// page containing va and bulk-accounts the n-1 that follow. It is
// exactly equivalent to n consecutive Translate calls on addresses of
// that page: after the first lookup the page is the most recently used
// entry, so the remaining n-1 lookups are guaranteed hits — they are
// charged as hits, advance the LRU clock, and refresh the slot without
// the per-access scan. It returns the physical address of va and the
// cycle cost of the first translation (the guaranteed hits cost 0).
func (t *TLB) TranslateRun(va uint64, n int) (pa uint64, cycles int) {
	pa, cycles, slot := t.translate(va)
	if slot >= 0 && n > 1 {
		t.clock += uint64(n - 1)
		t.hits += uint64(n - 1)
		t.slots[slot].used = t.clock
	}
	return pa, cycles
}

// SamePage returns how many of the n accesses from va on, stride bytes
// apart, fall on va's page.
func SamePage(va, stride uint64, n int) int {
	if stride > 0 {
		left := PageSize - va%PageSize // bytes to page end
		if k := int((left-1)/stride) + 1; k < n {
			return k
		}
	}
	return n
}

// TranslateSweep translates an ascending sweep of count >= 1 accesses
// from va, stride bytes apart, whose range does not wrap around the
// address space. It is exactly TranslateRun over each page segment of
// the sweep in order (SamePage), and returns the number of segments and
// the cycles they cost.
//
// On an empty TLB it is in closed form. The sweep's P pages are
// distinct, so each misses, and page j fills slot
// Entries-1-(j mod Entries): the last invalid slot while one is left,
// then the least recently used one, which page j-Entries filled. The
// last min(P, Entries) pages stay, each stamped with the clock at its
// segment's last access, and the pass costs P misses and count-P hits.
// The mapper still translates every page, in order, so its state moves
// as the page walk would move it. Any other TLB walks the segments.
func (t *TLB) TranslateSweep(va, stride uint64, count int) (pages, cycles uint64) {
	if !t.empty() {
		for j := 0; j < count; {
			vaj := va + uint64(j)*stride
			n := SamePage(vaj, stride, count-j)
			_, c := t.TranslateRun(vaj, n)
			cycles += uint64(c)
			pages++
			j += n
		}
		return pages, cycles
	}
	first := va / PageSize
	pages = (va+uint64(count-1)*stride)/PageSize - first + 1
	if stride >= PageSize {
		pages = uint64(count) // one access per page
	}
	entries := uint64(len(t.slots))
	for j := range pages {
		vpn, last := first+j, uint64(count-1) // the page and its segment's last access
		switch {
		case stride >= PageSize:
			vpn, last = (va+j*stride)/PageSize, j
		case stride > 0:
			last = min(last, ((vpn+1)*PageSize-1-va)/stride)
		}
		ppn := t.mapper.Translate(vpn*PageSize) / PageSize
		if j+entries >= pages {
			t.slots[entries-1-j%entries] = tlbSlot{vpn: vpn, ppn: ppn, valid: true, used: t.clock + last + 1}
		}
	}
	t.clock += uint64(count)
	t.hits += uint64(count) - pages
	t.misses += pages
	return pages, pages * uint64(t.MissPenalty)
}

// empty reports whether the TLB is enabled and holds no translation, as
// after NewTLB or Flush. A miss fills the last invalid slot, so the last
// slot is the first to be filled and stays valid until a Flush.
func (t *TLB) empty() bool { return t.enabled && !t.slots[len(t.slots)-1].valid }

// Mapper returns the mapper behind the TLB, nil for none.
func (t *TLB) Mapper() Mapper { return t.mapper }

// Stats returns hit and miss counts since creation or the last Flush.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// ResetStats zeroes the hit/miss counters without touching the cached
// translations (the counter counterpart of a warm cache).
func (t *TLB) ResetStats() { t.hits, t.misses = 0, 0 }

// AddStats bulk-advances the hit/miss counters. It exists for proved
// periodic-pass replay (see internal/cache/CACHE.md): once a pass has
// proved what every later pass does, the counter movement of those
// passes is added without simulating them.
func (t *TLB) AddStats(hits, misses uint64) {
	t.hits += hits
	t.misses += misses
}

// Flush invalidates all entries and zeroes the counters (context switch).
func (t *TLB) Flush() {
	for i := range t.slots {
		t.slots[i] = tlbSlot{}
	}
	t.hits, t.misses = 0, 0
}

// AppendState appends a canonical encoding of the TLB's replacement
// state to dst and returns the extended slice. Two TLBs with equal
// encodings (and equal configuration and backing mapper state) behave
// identically for any subsequent access sequence: the encoding captures
// each slot's mapping, validity and relative LRU rank, which — together
// with the strictly increasing clock — is all replacement decisions
// depend on. Absolute clock/used values are excluded, so two TLBs that
// reached the same state by different histories encode alike; the
// equivalence suites compare it.
func (t *TLB) AppendState(dst []uint64) []uint64 {
	for i := range t.slots {
		s := &t.slots[i]
		rank := uint64(0)
		for j := range t.slots {
			if t.slots[j].used < s.used {
				rank++
			}
		}
		flags := rank << 1
		if s.valid {
			flags |= 1
		}
		dst = append(dst, s.vpn, s.ppn, flags)
	}
	return dst
}

// String describes the TLB configuration.
func (t *TLB) String() string {
	if !t.enabled {
		return "TLB(disabled)"
	}
	return fmt.Sprintf("TLB(%d entries, %d-cycle miss)", t.Entries, t.MissPenalty)
}
