// Package cache implements a set-associative, multi-level, write-back
// cache simulator. Caches are physically indexed and physically tagged,
// which is what makes the paper's §V.A.1 observation reproducible: with
// a 32 KB 4-way L1 (two page colours, as on the Cortex-A9), an array
// whose physical pages are unluckily coloured conflicts with itself even
// though it fits the cache.
package cache

import (
	"fmt"
	"math/bits"

	"montblanc/internal/mem"
	"montblanc/internal/units"
)

// Config describes one cache level. The JSON tags define the wire form
// used by platform spec files (see internal/platform.Spec).
type Config struct {
	Name          string `json:"name"`          // e.g. "L1d"
	Level         int    `json:"level"`         // 1-based
	Size          int    `json:"size"`          // bytes, power of two
	LineSize      int    `json:"line_size"`     // bytes, power of two
	Associativity int    `json:"associativity"` // ways; Size/LineSize must be divisible by it
	HitLatency    int    `json:"hit_latency"`   // cycles for a hit at this level
	Shared        bool   `json:"shared"`        // informational: shared between cores
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.Size&(c.Size-1) != 0:
		return fmt.Errorf("cache %s: size %d not a positive power of two", c.Name, c.Size)
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineSize)
	case c.Size < c.LineSize:
		return fmt.Errorf("cache %s: size %d holds no %d-byte line", c.Name, c.Size, c.LineSize)
	case c.Associativity <= 0:
		return fmt.Errorf("cache %s: associativity %d", c.Name, c.Associativity)
	case c.Associativity > maxWays:
		return fmt.Errorf("cache %s: associativity %d exceeds %d ways, the most a %d-bit recency rank can order",
			c.Name, c.Associativity, maxWays, 16-rankShift)
	case (c.Size/c.LineSize)%c.Associativity != 0:
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways",
			c.Name, c.Size/c.LineSize, c.Associativity)
	case c.HitLatency < 0:
		return fmt.Errorf("cache %s: negative hit latency", c.Name)
	}
	return nil
}

// Stats counts events at one level.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRatio returns misses/accesses, or 0 when idle.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Memory is the DRAM backstop of a hierarchy.
type Memory struct {
	Latency int // cycles per line fill
	stats   Stats
}

// Stats returns the DRAM access counts.
func (m *Memory) Stats() Stats { return m.stats }

// Each line carries one state word: its recency rank within its set
// above its valid and dirty bits. Rank 0 is the least recently used way
// and Associativity-1 the most recent; ways never touched share rank 0.
// The word is exactly the flags word AppendState emits.
const (
	dirtyBit  = 1 << 0
	validBit  = 1 << 1
	rankShift = 2
	rankOne   = 1 << rankShift // one rank step
	flagMask  = rankOne - 1

	// maxWays is the largest associativity whose ranks fit a 16-bit
	// state word.
	maxWays = 1 << (16 - rankShift)
)

// A census word counts one set's lookups since the census was last
// settled: lookups in the high half, hits in the low half. Zero means
// the set was not looked up.
const (
	censusLookup = 1 << 32
	censusHit    = 1
)

// Cache is one simulated level.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	setBits   uint
	tags      []uint64
	state     []uint16 // per line: rank<<rankShift | validBit | dirtyBit
	stats     Stats

	// The census behind the steady-pass certificate: a word per set and
	// the first nTouched entries of touched, the sets whose word is not
	// zero. Only AccessPass counts (it sets counting and allocates both
	// on its first call), and it settles the census before it returns.
	counting bool
	census   []uint64
	touched  []uint32
	nTouched int
}

// newCache allocates a validated level.
func newCache(cfg Config) *Cache {
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Associativity
	c := &Cache{
		cfg:   cfg,
		tags:  make([]uint64, nLines),
		state: make([]uint16, nLines),
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

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the level's event counts.
func (c *Cache) Stats() Stats { return c.stats }

// access looks up the line holding pa and makes it its set's most
// recently used line, filling it on a miss. The victim is the last
// invalid way if the set has one, else the least recently used way. It
// returns the index of the line now holding pa and whether it hit, and
// counts the lookup in the census while counting.
func (c *Cache) access(pa uint64, write bool) (line int, hit bool) {
	c.stats.Accesses++
	assoc := c.cfg.Associativity
	set := int((pa >> c.lineShift) & c.setMask)
	base := set * assoc
	tag := pa >> (c.lineShift + c.setBits)
	tags := c.tags[base : base+assoc]
	state := c.state[base : base+assoc]
	for w, t := range tags {
		if t == tag && state[w]&validBit != 0 {
			c.stats.Hits++
			if c.counting {
				c.count(set, censusLookup+censusHit)
			}
			if write {
				state[w] |= dirtyBit
			}
			promote(state, w)
			return base + w, true
		}
	}
	c.stats.Misses++
	if c.counting {
		c.count(set, censusLookup)
	}
	fill := uint16(validBit)
	if write {
		fill |= dirtyBit
	}
	// Move every way down one rank, as evicting the rank-0 way of a full
	// set requires, noting that way and the last invalid one.
	lru, invalid := 0, -1
	for w, s := range state {
		if s&validBit == 0 {
			invalid = w
		} else if s < rankOne {
			lru = w
		}
		state[w] = s - rankOne
	}
	if invalid < 0 {
		if state[lru]&dirtyBit != 0 {
			// Write-back of the evicted dirty line. The latency is
			// absorbed by write buffers; we only count the event.
			c.stats.Writebacks++
		}
		tags[lru] = tag
		state[lru] = uint16(assoc-1)<<rankShift | fill
		return base + lru, false
	}
	// The set is not full: undo the move and fill the last invalid way.
	for w := range state {
		state[w] += rankOne
	}
	tags[invalid] = tag
	state[invalid] |= fill // invalid lines are never dirty
	promote(state, invalid)
	return base + invalid, false
}

// promote makes way w the most recently used of its set: every way more
// recent than w moves down one rank and w takes the top rank.
func promote(state []uint16, w int) {
	s := state[w]
	top := uint16(len(state)-1) << rankShift
	if s >= top {
		return
	}
	newer := s | flagMask // state words above this are more recent than w
	for v, o := range state {
		if o > newer {
			state[v] = o - rankOne
		}
	}
	state[w] = s&flagMask | top
}

// count adds one lookup of set to the census.
func (c *Cache) count(set int, n uint64) {
	w := c.census[set]
	if w == 0 {
		c.touched[c.nTouched] = uint32(set)
		c.nTouched++
	}
	c.census[set] = w + n
}

// settle clears the census and reports whether every set it counted
// either hit on every lookup, or missed on every lookup with more
// lookups than ways and a multiple of the ways: the per-level part of
// the steady-pass certificate (see AccessPass).
func (c *Cache) settle() bool {
	steady := true
	ways := uint64(c.cfg.Associativity)
	for _, set := range c.touched[:c.nTouched] {
		w := c.census[set]
		c.census[set] = 0
		lookups, hits := w/censusLookup, w%censusLookup
		if hits != lookups && (hits != 0 || lookups <= ways || lookups%ways != 0) {
			steady = false
		}
	}
	c.nTouched = 0
	return steady
}

// hitRun bulk-accounts n guaranteed hits on the resident line at index
// idx. It is exactly equivalent to n consecutive access calls on
// addresses within that line immediately after the call that touched
// it: each would hit the set's most recently used line, so only the
// counters and (for stores) the dirty bit move.
func (c *Cache) hitRun(idx, n int, write bool) {
	c.stats.Accesses += uint64(n)
	c.stats.Hits += uint64(n)
	if write {
		c.state[idx] |= dirtyBit
	}
}

// Flush invalidates all lines, counting dirty evictions as writebacks.
// Ranks are kept: a flush does not reorder recency.
func (c *Cache) Flush() {
	for i, s := range c.state {
		if s&dirtyBit != 0 { // only valid lines are ever dirty
			c.stats.Writebacks++
		}
		c.state[i] = s &^ flagMask
	}
}

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// String describes the level.
func (c *Cache) String() string {
	return fmt.Sprintf("%s(%s %d-way %dB lines, %d-cycle hit)",
		c.cfg.Name, units.Bytes(int64(c.cfg.Size)), c.cfg.Associativity,
		c.cfg.LineSize, c.cfg.HitLatency)
}

// Hierarchy bundles a TLB, a stack of cache levels (L1 first) and DRAM.
// All addresses entering Access are virtual; translation happens through
// the TLB/mapper before indexing, which is what exposes page-colouring.
type Hierarchy struct {
	tlb    *mem.TLB
	levels []*Cache
	mem    *Memory

	// The page segments AccessRun translated (the TLB's lookups), the
	// physical page of the last one, and whether every page lay above
	// the one before. AccessPass resets them and reads them.
	pages, lastPage uint64
	pagesAscend     bool
}

// NewHierarchy builds a hierarchy from level configs (ordered L1 first),
// DRAM latency, and an optional TLB (nil means identity translation).
func NewHierarchy(cfgs []Config, memLatency int, tlb *mem.TLB) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	levels := make([]*Cache, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		levels[i] = newCache(cfg)
	}
	return &Hierarchy{tlb: tlb, levels: levels, mem: &Memory{Latency: memLatency}}, nil
}

// Access performs a load (write=false) or store (write=true) at virtual
// address va and returns the total latency in cycles, including any TLB
// miss penalty.
func (h *Hierarchy) Access(va uint64, write bool) int {
	pa, cost := va, 0
	if h.tlb != nil {
		pa, cost = h.tlb.Translate(va)
	}
	l1 := h.levels[0]
	cost += l1.cfg.HitLatency
	if _, hit := l1.access(pa, write); !hit {
		cost += h.miss(pa)
	}
	return cost
}

// miss walks the miss chain below the L1 for physical address pa: each
// level looks the line up (filling it on a miss), and the walk stops at
// the first hit or, when every level misses, at DRAM. Lower levels are
// filled by reads; only the L1 sees stores. It returns the latency
// beyond the L1 hit cost.
func (h *Hierarchy) miss(pa uint64) int {
	lat := 0
	for _, c := range h.levels[1:] {
		lat += c.cfg.HitLatency
		if _, hit := c.access(pa, false); hit {
			return lat
		}
	}
	h.mem.stats.Accesses++
	h.mem.stats.Misses++ // every DRAM access is a "miss" at this level
	return lat + h.mem.Latency
}

// RunResult aggregates the outcome of a batched access run.
type RunResult struct {
	Accesses uint64 // accesses performed (== the requested count)
	Latency  uint64 // sum of per-access latencies in cycles
	Extra    uint64 // sum of per-access latency beyond the L1 hit cost
}

// Add accumulates other into r.
func (r *RunResult) Add(other RunResult) {
	r.Accesses += other.Accesses
	r.Latency += other.Latency
	r.Extra += other.Extra
}

// accessInto performs one scalar Access and folds it into rr.
func (h *Hierarchy) accessInto(rr *RunResult, va uint64, write bool) {
	lat := h.Access(va, write)
	rr.Accesses++
	rr.Latency += uint64(lat)
	if extra := lat - h.levels[0].cfg.HitLatency; extra > 0 {
		rr.Extra += uint64(extra)
	}
}

// AccessRun performs count accesses at va, va+strideBytes,
// va+2*strideBytes, ... and returns the aggregate latency. It is
// exactly equivalent — same per-level Stats, same TLB counters, same
// replacement state, same total latency — to the scalar loop
//
//	for i := 0; i < count; i++ {
//		h.Access(va+uint64(i*strideBytes), write)
//	}
//
// but exploits the structure of ascending strided runs at two levels:
// the VA→PA translation (and TLB lookup) runs once per page with the
// page's remaining accesses bulk-accounted as guaranteed TLB hits, and
// when the stride is smaller than the L1 line size the set machinery
// runs once per line with the remaining same-line accesses
// bulk-accounted as guaranteed L1 hits. Zero and negative strides are
// supported (a zero stride is count touches of one address; negative
// strides fall back to the scalar loop).
func (h *Hierarchy) AccessRun(va uint64, strideBytes, count int, write bool) RunResult {
	var rr RunResult
	if count <= 0 {
		return rr
	}
	if strideBytes < 0 {
		// Descending runs are not line/page-segmentable front-to-back;
		// keep them on the reference path.
		for i := 0; i < count; i++ {
			h.accessInto(&rr, va, write)
			va -= uint64(-strideBytes)
		}
		return rr
	}
	l1 := h.levels[0]
	l1Hit := uint64(l1.cfg.HitLatency)
	lineSize := uint64(l1.cfg.LineSize)
	stride := uint64(strideBytes)
	// Counting the accesses left in a line divides by the stride; shift
	// instead when the stride is a power of two.
	shift := -1
	if stride > 0 && stride&(stride-1) == 0 {
		shift = bits.TrailingZeros64(stride)
	}
	for j := 0; j < count; {
		vaj := va + uint64(j)*stride
		// Page segment: the accesses from j onward that share vaj's page.
		inPage := count - j
		var (
			pa   uint64
			tcyc int
		)
		if h.tlb != nil {
			if stride > 0 {
				left := mem.PageSize - vaj%mem.PageSize // bytes to page end
				if n := int((left-1)/stride) + 1; n < inPage {
					inPage = n
				}
			}
			pa, tcyc = h.tlb.TranslateRun(vaj, inPage)
			page := pa / mem.PageSize
			if h.pages > 0 && page <= h.lastPage {
				h.pagesAscend = false
			}
			h.lastPage = page
			h.pages++
		} else {
			pa = vaj
		}
		// Line segments within the page. The first access of each line
		// pays the full set lookup (and, for the first line, the page's
		// translation cost); follow-up same-line accesses are guaranteed
		// L1 hits and are accounted in bulk.
		for done := 0; done < inPage; {
			paCur := pa + uint64(done)*stride
			k := inPage - done
			if stride == 0 {
				// All remaining accesses touch this very address.
			} else if stride < lineSize {
				left := lineSize - paCur&(lineSize-1) // bytes to line end
				var n int
				if shift >= 0 {
					n = int((left-1)>>shift) + 1
				} else {
					n = int((left-1)/stride) + 1
				}
				if n < k {
					k = n
				}
			} else {
				k = 1
			}
			lat := l1.cfg.HitLatency
			line, hit := l1.access(paCur, write)
			if !hit {
				lat += h.miss(paCur)
			}
			if done == 0 {
				lat += tcyc
			}
			rr.Accesses++
			rr.Latency += uint64(lat)
			if uint64(lat) > l1Hit {
				rr.Extra += uint64(lat) - l1Hit
			}
			if k > 1 {
				l1.hitRun(line, k-1, write)
				rr.Accesses += uint64(k - 1)
				rr.Latency += uint64(k-1) * l1Hit
			}
			done += k
		}
		j += inPage
	}
	return rr
}

// AccessPass is AccessRun for one pass of a periodic sweep. It also
// reports whether the pass earned the steady-pass certificate: proof
// that the same call, made again from the state this one left, gives
// the same RunResult and counter movement and leaves that state
// exactly as it is, AppendState included — so every further pass can
// be replayed from counters (AddStats) instead of simulated. The
// certificate comes from a census of the pass's lookups per set at
// every level (the bulk-accounted same-line and same-page hits are not
// lookups) and is granted only when
//
//  1. every set of every level either hit on every lookup, or missed on
//     every lookup with more lookups than ways and a multiple of the
//     ways;
//  2. the TLB did the same over its page lookups;
//  3. the pass wrote nothing back; and
//  4. the stride is not negative, the sweep does not wrap around the
//     address space, and each page's physical page lies above the
//     previous page's, so every line occurs once per pass.
//
// CACHE.md gives the proof. A pass that fails a condition is not
// certified, steady or not. The census costs one counter update per
// lookup and one visit per touched set; AccessRun takes none.
func (h *Hierarchy) AccessPass(va uint64, strideBytes, count int, write bool) (RunResult, bool) {
	if count <= 0 || strideBytes < 0 {
		return h.AccessRun(va, strideBytes, count, write), false
	}
	writebacks := h.writebacks()
	var tlbMisses uint64
	if h.tlb != nil {
		_, tlbMisses = h.tlb.Stats()
	}
	for _, c := range h.levels {
		if c.census == nil {
			sets := len(c.tags) / c.cfg.Associativity
			c.census, c.touched = make([]uint64, sets), make([]uint32, sets)
		}
		c.counting = true
	}
	h.pages, h.pagesAscend = 0, true
	rr := h.AccessRun(va, strideBytes, count, write)
	// Conditions 3 and 4. The sweep must not wrap around the address
	// space either, and as no set looks up more than count times, count
	// must fit a census word's half.
	hi, last := bits.Mul64(uint64(count-1), uint64(strideBytes))
	steady := h.writebacks() == writebacks && h.pagesAscend && hi == 0 && va+last >= va &&
		uint64(count) < censusLookup
	for _, c := range h.levels {
		c.counting = false
		if !c.settle() { // condition 1
			steady = false
		}
	}
	if h.tlb != nil { // condition 2: every page lookup hit, or every one missed
		_, m := h.tlb.Stats()
		if misses, ways := m-tlbMisses, uint64(h.tlb.Entries); misses != 0 &&
			(misses != h.pages || h.pages <= ways || h.pages%ways != 0) {
			steady = false
		}
	}
	return rr, steady
}

// writebacks sums the write-backs of every level.
func (h *Hierarchy) writebacks() uint64 {
	var n uint64
	for _, c := range h.levels {
		n += c.stats.Writebacks
	}
	return n
}

// Level returns cache level i (0 = L1). It panics on out-of-range i.
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Depth returns the number of cache levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Memory returns the DRAM backstop.
func (h *Hierarchy) Memory() *Memory { return h.mem }

// L1HitLatency returns the hit latency of the first level, the baseline
// cost subtracted when converting access latency into stall cycles.
func (h *Hierarchy) L1HitLatency() int { return h.levels[0].cfg.HitLatency }

// Flush invalidates every level and flushes the TLB.
func (h *Hierarchy) Flush() {
	for _, l := range h.levels {
		l.Flush()
	}
	if h.tlb != nil {
		h.tlb.Flush()
	}
}

// ResetStats zeroes all counters — cache levels, DRAM and the TLB —
// while keeping cache contents and translations warm. Every counter the
// batched path bulk-updates is covered, so a reset-then-run observes
// only the run.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.ResetStats()
	}
	h.mem.stats = Stats{}
	if h.tlb != nil {
		h.tlb.ResetStats()
	}
}

// TLBStats returns the TLB hit/miss counters, with present=false when
// the hierarchy translates identically (no TLB attached).
func (h *Hierarchy) TLBStats() (hits, misses uint64, present bool) {
	if h.tlb == nil {
		return 0, 0, false
	}
	hits, misses = h.tlb.Stats()
	return hits, misses, true
}

// HierarchyStats is a combined snapshot of every counter in a
// hierarchy: per-level cache Stats (L1 first), the DRAM backstop, and
// the TLB. It is the unit of periodic-pass replay: the counter
// movement of one certified pass, replayed multiplicatively.
type HierarchyStats struct {
	Levels    []Stats
	Memory    Stats
	TLBHits   uint64
	TLBMisses uint64
}

// ReadStats fills s with the hierarchy's current counters, reusing
// s.Levels when already sized.
func (h *Hierarchy) ReadStats(s *HierarchyStats) {
	if cap(s.Levels) < len(h.levels) {
		s.Levels = make([]Stats, len(h.levels))
	}
	s.Levels = s.Levels[:len(h.levels)]
	for i, l := range h.levels {
		s.Levels[i] = l.stats
	}
	s.Memory = h.mem.stats
	s.TLBHits, s.TLBMisses = 0, 0
	if h.tlb != nil {
		s.TLBHits, s.TLBMisses = h.tlb.Stats()
	}
}

// sub sets s = a - b per counter (a must be a later snapshot of the
// same hierarchy than b).
func (s *HierarchyStats) sub(a, b *HierarchyStats) {
	if cap(s.Levels) < len(a.Levels) {
		s.Levels = make([]Stats, len(a.Levels))
	}
	s.Levels = s.Levels[:len(a.Levels)]
	for i := range a.Levels {
		s.Levels[i] = subStats(a.Levels[i], b.Levels[i])
	}
	s.Memory = subStats(a.Memory, b.Memory)
	s.TLBHits = a.TLBHits - b.TLBHits
	s.TLBMisses = a.TLBMisses - b.TLBMisses
}

// Delta sets s to the counter movement between snapshots before and
// after a region: s = after - before.
func (s *HierarchyStats) Delta(after, before *HierarchyStats) { s.sub(after, before) }

func subStats(a, b Stats) Stats {
	return Stats{
		Accesses:   a.Accesses - b.Accesses,
		Hits:       a.Hits - b.Hits,
		Misses:     a.Misses - b.Misses,
		Writebacks: a.Writebacks - b.Writebacks,
	}
}

// AddStats bulk-advances every counter by d, times-fold. It exists for
// periodic-pass replay (see CACHE.md): once AccessPass certifies a
// pass, further identical passes move only the counters, by exactly d
// each — replaying them is legal and exact. Replacement state is not
// touched: a replayed pass leaves it where the certified pass did.
func (h *Hierarchy) AddStats(d *HierarchyStats, times uint64) {
	for i, l := range h.levels {
		if i >= len(d.Levels) {
			break
		}
		dl := d.Levels[i]
		l.stats.Accesses += dl.Accesses * times
		l.stats.Hits += dl.Hits * times
		l.stats.Misses += dl.Misses * times
		l.stats.Writebacks += dl.Writebacks * times
	}
	h.mem.stats.Accesses += d.Memory.Accesses * times
	h.mem.stats.Hits += d.Memory.Hits * times
	h.mem.stats.Misses += d.Memory.Misses * times
	h.mem.stats.Writebacks += d.Memory.Writebacks * times
	if h.tlb != nil {
		h.tlb.AddStats(d.TLBHits*times, d.TLBMisses*times)
	}
}

// AppendState appends a canonical encoding of the hierarchy's
// replacement state (every cache level, then the TLB) to dst and
// returns the extended slice. Two hierarchies with equal encodings —
// and equal configuration and backing mapper state — behave
// identically for any subsequent access sequence: per line, in way
// order, the encoding is the tag and the stored state word (recency
// rank within the set, validity, dirtiness), which is all the
// replacement machinery's decisions depend on. Way order is part of the
// encoding. Counters are excluded: state equality is about future
// behaviour, not history. The equivalence suites compare it; a
// certified pass (AccessPass) leaves it unchanged.
func (h *Hierarchy) AppendState(dst []uint64) []uint64 {
	for _, l := range h.levels {
		for i, tag := range l.tags {
			dst = append(dst, tag, uint64(l.state[i]))
		}
	}
	if h.tlb != nil {
		dst = h.tlb.AppendState(dst)
	}
	return dst
}
