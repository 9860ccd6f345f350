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
	"slices"

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

// Cache is one simulated level.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	setBits   uint
	tags      []uint64
	state     []uint16 // per line: rank<<rankShift | validBit | dirtyBit
	stats     Stats

	// The last set-major pass's verdict on this level, which AccessPass
	// reads (judge): some set failed the certificate's condition 1, and
	// some set looked up more lines than ways. setMajorPass clears both
	// before it walks the levels.
	unsteady, overWays bool
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
// returns the index of the line now holding pa and whether it hit.
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
			if write {
				state[w] |= dirtyBit
			}
			promote(state, w)
			return base + w, true
		}
	}
	c.stats.Misses++
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
	// The set is not full: fill its last invalid way and promote it.
	// That undoes the move, except for the ways more recent than the
	// filled one, which the promotion moves down one rank anyway.
	newer := (state[invalid] + rankOne) | flagMask // its word before the move, flags set
	for w, s := range state {
		if s+rankOne <= newer {
			state[w] = s + rankOne
		}
	}
	tags[invalid] = tag
	state[invalid] = uint16(assoc-1)<<rankShift | fill // invalid lines are never dirty
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

// judge folds one set's lookups and hits in a set-major pass into the
// level's verdict: the set meets condition 1 of the steady-pass
// certificate when it hit on every lookup, or missed on every lookup
// with more lookups than ways and a multiple of the ways, and the
// settling forecast can fill the level only if no set looked up more
// lines than ways (see AccessPass).
func (c *Cache) judge(lookups, hits uint64) {
	ways := uint64(c.cfg.Associativity)
	if hits != lookups && (hits != 0 || lookups <= ways || lookups%ways != 0) {
		c.unsteady = true
	}
	if lookups > ways {
		c.overWays = true
	}
}

// missTail accounts, in closed form, the last t lookups of set in a
// set-major pass. The set has missed Associativity times in the pass,
// so it is full, its ranks are a permutation, and each of those lookups
// misses (CACHE.md, "Set-major passes"). The j-th of them evicts the
// way whose rank was j mod ways when they began, and after the last
// every way has moved down t ranks, cyclically. last holds the tags of
// the min(t, ways) last lookups, the last one first. The victims of the
// first ways lookups are the lines the set held, which may be dirty;
// every later victim was filled clean by the pass.
func (c *Cache) missTail(set int, t uint64, last []uint64) {
	ways := uint64(c.cfg.Associativity)
	base := set * int(ways)
	tags, state := c.tags[base:base+int(ways)], c.state[base:base+int(ways)]
	d := ways - t%ways
	for w, s := range state {
		r := uint64(s >> rankShift)
		if r < t {
			if s&dirtyBit != 0 {
				c.stats.Writebacks++
			}
			tags[w] = last[(t-1-r)%ways]
			s = validBit
		}
		state[w] = uint16((r+d)%ways)<<rankShift | s&flagMask
	}
	c.stats.Accesses += t
	c.stats.Misses += t
}

// passLines is the line progression of a set-major pass: it looks up
// lines x0 + q*step, for q < n, in that order.
type passLines struct{ x0, step, n uint64 }

// period returns how many lines of the progression pass before it
// comes back to a set of c: lines q and q' share a set exactly when
// q ≡ q' mod period, so the sets of lines 0 … period-1 are distinct.
func (p passLines) period(c *Cache) uint64 {
	return (c.setMask + 1) >> min(uint(bits.TrailingZeros64(p.step)), c.setBits)
}

// fillFresh performs the pass on a level that holds no valid line, set
// by set in closed form. Every lookup misses, and the j-th of a set's k
// lookups fills way ways-1-(j mod ways): the last invalid way while one
// is left, then the rank-0 way, which is the way the j-ways-th lookup
// filled. Lookup j of the last ways ends with rank ways-k+j, and the
// ways no lookup filled keep their empty state. It returns the level's
// lookups, all misses.
func (c *Cache) fillFresh(p passLines) uint64 {
	ways := uint64(c.cfg.Associativity)
	period := p.period(c)
	for q0 := range min(p.n, period) {
		set := (p.x0 + q0*p.step) & c.setMask
		k := (p.n-1-q0)/period + 1
		base := set * ways
		for j := k - min(k, ways); j < k; j++ {
			w := base + ways - 1 - j%ways
			c.tags[w] = (p.x0 + (q0+j*period)*p.step) >> c.setBits
			c.state[w] = uint16(ways-k+j)<<rankShift | validBit
		}
		c.judge(k, 0)
	}
	c.stats.Accesses += p.n
	c.stats.Misses += p.n
	return p.n
}

// walk performs the pass on c set by set. A set's lookups are its lines
// of the progression less skip, the progression indices q of the lines
// a level above hit, sorted by q mod period and then q. They go through
// access until the set has missed ways times; missTail accounts the
// rest, which all miss. It appends the q of every hit to hits when hits
// is not nil, judges each set, and returns hits and the level's lookups
// and misses. tail is scratch of at least ways words.
func (c *Cache) walk(p passLines, skip, hits, tail []uint64) (_ []uint64, lookups, misses uint64) {
	ways := uint64(c.cfg.Associativity)
	period := p.period(c)
	for q0 := range min(p.n, period) {
		e := 0
		for e < len(skip) && skip[e]>>32 == q0 {
			e++
		}
		mine := skip[:e] // this set's skipped lines, ascending
		skip = skip[e:]
		set := int((p.x0 + q0*p.step) & c.setMask)
		k := (p.n-1-q0)/period + 1
		var look, hit, j uint64
		for ; j < k && look-hit < ways; j++ {
			q := q0 + j*period
			if len(mine) > 0 && uint32(mine[0]) == uint32(q) {
				mine = mine[1:]
				continue
			}
			look++
			if _, ok := c.access((p.x0+q*p.step)<<c.lineShift, false); ok {
				hit++
				if hits != nil {
					hits = append(hits, q)
				}
			}
		}
		if t := k - j - uint64(len(mine)); t > 0 {
			// The tags of the set's last min(t, ways) lookups, last first.
			n := 0
			for i := k - 1; n < int(min(t, ways)); i-- {
				q := q0 + i*period
				if len(mine) > 0 && uint32(mine[len(mine)-1]) == uint32(q) {
					mine = mine[:len(mine)-1]
					continue
				}
				tail[n] = (p.x0 + q*p.step) >> c.setBits
				n++
			}
			c.missTail(set, t, tail[:n])
			look += t
		}
		c.judge(look, hit)
		lookups += look
		misses += look - hit
	}
	return hits, lookups, misses
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

	// fresh is set while no level has been looked up since NewHierarchy
	// or Reset: every set of every level holds no valid line.
	fresh bool

	// before holds the counters at the start of an AccessPass.
	before HierarchyStats

	// Scratch of the set-major route, allocated by its first pass: the
	// progression indices of the lines the levels above the last hit
	// (at most their capacity in lines), and a word per way for a
	// closed-form tail's tags.
	hits, tail []uint64
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
	return &Hierarchy{tlb: tlb, levels: levels, mem: &Memory{Latency: memLatency}, fresh: true}, nil
}

// Access performs a load (write=false) or store (write=true) at virtual
// address va and returns the total latency in cycles, including any TLB
// miss penalty.
func (h *Hierarchy) Access(va uint64, write bool) int {
	h.fresh = false
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
	h.fresh = false
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
			inPage = samePage(vaj, stride, inPage)
			pa, tcyc = h.tlb.TranslateRun(vaj, inPage)
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

// samePage returns how many of the n accesses from va on, stride bytes
// apart, fall on va's page.
func samePage(va, stride uint64, n int) int {
	if stride > 0 {
		left := mem.PageSize - va%mem.PageSize // bytes to page end
		if k := int((left-1)/stride) + 1; k < n {
			return k
		}
	}
	return n
}

// Replay is what every later pass of a periodic sweep does, once
// AccessPass has proved it: the RunResult each such pass returns and
// the movement of every counter it makes. Passes replayed with AddStats
// leave the state where simulating them would.
type Replay struct {
	Result RunResult
	Delta  HierarchyStats
}

// AccessPass is AccessRun for one load pass of a periodic sweep. When
// the pass proves what the same call, made again and again from the
// state it leaves, does, AccessPass sets *next to that later pass and
// returns true; every later pass then repeats *next exactly and leaves
// the state, AppendState included, as it is. Only a pass that takes the
// set-major route (setMajor) can prove anything; every other pass is
// AccessRun and returns false. Two rules prove it, from what the route
// finds at each set of each level (the bulk-accounted same-line and
// same-page hits are not lookups), and CACHE.md gives the proofs.
//
// The steady-pass certificate: the pass repeats itself when
//
//  1. every set of every level either hit on every lookup, or missed on
//     every lookup with more lookups than ways and a multiple of the
//     ways;
//  2. the TLB did the same over its page lookups;
//  3. the pass wrote nothing back; and
//  4. the pass has the set-major route's shape, so every line occurs
//     once per pass, in ascending order.
//
// The settling forecast: when conditions 3 and 4 hold, every level
// above some level L meets condition 1, every set of L looked up at
// most ways lines, and the TLB meets condition 2 or saw at most Entries
// pages, then the next pass hits at L on every lookup, looks nothing up
// below L and changes no state; forecast writes that pass.
//
// A pass that proves nothing is simulated again by the caller.
func (h *Hierarchy) AccessPass(va uint64, strideBytes, count int, next *Replay) (RunResult, bool) {
	pa, ok := h.setMajor(va, strideBytes, count)
	if !ok {
		return h.AccessRun(va, strideBytes, count, false), false
	}
	h.ReadStats(&h.before)
	rr, pages := h.setMajorPass(va, pa, strideBytes, count)
	d := &next.Delta
	h.ReadStats(d)
	d.sub(d, &h.before)
	steady := true // condition 4 holds
	for _, s := range d.Levels {
		if s.Writebacks != 0 { // condition 3
			steady = false
		}
	}
	fill := -1 // the forecast's level L
	for i, c := range h.levels {
		if steady && !c.overWays && fill < 0 {
			fill = i
		}
		steady = steady && !c.unsteady // condition 1
	}
	tlbSteady, tlbFits := true, true
	if h.tlb != nil { // condition 2: every page lookup hit, or every one missed
		misses, ways := d.TLBMisses, uint64(h.tlb.Entries)
		tlbSteady = misses == 0 || misses == pages && pages > ways && pages%ways == 0
		tlbFits = pages <= ways
	}
	switch {
	case steady && tlbSteady:
		next.Result = rr
	case fill >= 0 && (tlbSteady || tlbFits):
		h.forecast(rr.Accesses, fill, tlbSteady, next)
	default:
		return rr, false
	}
	return rr, true
}

// setMajor reports whether a pass takes the set-major route, and if so
// returns its first physical address. The route needs 1 ≤ count < 2^32
// accesses (Cache.walk keys lines by a 32-bit index), a non-negative
// stride of at most the line size or a whole multiple of it, every
// level with the L1's line size, at most a page, and one contiguous
// physical range: no TLB, or a TLB over a ContiguousMapper, whose base
// is a page boundary. Neither the virtual nor the physical range may
// wrap around the address space. Then every line of the pass lies in
// one page segment, the L1 looks up the lines of the pass in ascending
// order, each once, and every level below looks up a subsequence of
// them.
func (h *Hierarchy) setMajor(va uint64, stride, count int) (pa uint64, ok bool) {
	line := h.levels[0].cfg.LineSize
	if count <= 0 || uint64(count) >= 1<<32 || stride < 0 || line > mem.PageSize || stride > line && stride%line != 0 {
		return 0, false
	}
	for _, c := range h.levels[1:] {
		if c.cfg.LineSize != line {
			return 0, false
		}
	}
	pa = va
	if h.tlb != nil {
		m, ok := h.tlb.Mapper().(*mem.ContiguousMapper)
		if !ok {
			return 0, false
		}
		pa = m.Translate(va)
	}
	hi, last := bits.Mul64(uint64(count-1), uint64(stride))
	return pa, hi == 0 && va+last >= va && pa+last >= pa
}

// setMajorPass performs a pass that setMajor admits, starting at
// virtual address va and physical address pa. The TLB is walked page by
// page, as AccessRun walks it. Each level is walked one set at a time
// (Cache.walk), on the lines of the pass less those a level above hit:
// a level's state depends only on its own lookups, which are the
// misses of the level above in order, and sets do not interact. On a
// fresh hierarchy nothing hits and every level fills in closed form
// (Cache.fillFresh). The latency of a lookup is the sum of the hit
// latencies of the levels it reaches, so the RunResult follows from the
// lookups per level. CACHE.md, "Set-major passes", has the argument.
// It returns the RunResult and the page segments the TLB looked up.
func (h *Hierarchy) setMajorPass(va, pa uint64, strideBytes, count int) (_ RunResult, pages uint64) {
	stride := uint64(strideBytes)
	var extra uint64
	if h.tlb != nil {
		for j := 0; j < count; {
			vaj := va + uint64(j)*stride
			n := samePage(vaj, stride, count-j)
			_, tcyc := h.tlb.TranslateRun(vaj, n)
			extra += uint64(tcyc)
			pages++
			j += n
		}
	}
	l1 := h.levels[0]
	p := passLines{x0: pa >> l1.lineShift, step: 1, n: 1}
	switch lineSize := uint64(l1.cfg.LineSize); {
	case stride > lineSize:
		p.step, p.n = stride/lineSize, uint64(count)
	case stride > 0:
		p.n = (pa+uint64(count-1)*stride)>>l1.lineShift - p.x0 + 1
	}
	// Same-line accesses after a line's first are L1 hits in bulk, as in
	// AccessRun.
	l1.stats.Accesses += uint64(count) - p.n
	l1.stats.Hits += uint64(count) - p.n

	fresh := h.fresh
	h.fresh = false
	if h.tail == nil {
		capacity, ways := 0, 0
		for i, c := range h.levels {
			if i < len(h.levels)-1 {
				capacity += len(c.tags)
			}
			ways = max(ways, c.cfg.Associativity)
		}
		h.hits, h.tail = make([]uint64, 0, capacity), make([]uint64, ways)
	}
	for _, c := range h.levels {
		c.unsteady, c.overWays = false, false
	}
	hits := h.hits[:0]
	var misses uint64 // of the level last walked: the next level's lookups, or DRAM's
	for i, c := range h.levels {
		if i > 0 && misses == 0 {
			break // nothing reaches this level or those below
		}
		var lookups uint64
		if fresh {
			lookups = c.fillFresh(p)
			misses = lookups
		} else {
			skip := keyBySet(hits, p.period(c))
			if i == len(h.levels)-1 {
				hits = nil // no level below skips what the last one hits
			}
			hits, lookups, misses = c.walk(p, skip, hits, h.tail)
		}
		if i > 0 {
			extra += lookups * uint64(c.cfg.HitLatency)
		}
	}
	h.mem.stats.Accesses += misses
	h.mem.stats.Misses += misses
	extra += misses * uint64(h.mem.Latency)
	return RunResult{
		Accesses: uint64(count),
		Latency:  uint64(count)*uint64(l1.cfg.HitLatency) + extra,
		Extra:    extra,
	}, pages
}

// keyBySet sorts the progression indices q in the low halves of keys by
// q mod period, then by q, keeping that remainder in the high halves:
// the order in which Cache.walk visits a level's sets and their lines.
func keyBySet(keys []uint64, period uint64) []uint64 {
	for i, k := range keys {
		q := k & (1<<32 - 1)
		keys[i] = q&(period-1)<<32 | q
	}
	slices.Sort(keys)
	return keys
}

// forecast turns next.Delta, the counter movement of a pass that
// settles at level fill, into the next pass's: the levels above fill
// repeat theirs, fill hits on every lookup, nothing below it is looked
// up, and the TLB repeats its misses if it is steady or hits on every
// page if it is not. Every access costs the L1 hit latency, every
// lookup below the L1 down to fill its level's hit latency and every
// TLB miss the miss penalty.
func (h *Hierarchy) forecast(accesses uint64, fill int, tlbSteady bool, next *Replay) {
	d := &next.Delta
	var extra uint64
	for i := 1; i <= fill; i++ {
		extra += d.Levels[i].Accesses * uint64(h.levels[i].cfg.HitLatency)
	}
	lookups := d.Levels[fill].Accesses
	d.Levels[fill] = Stats{Accesses: lookups, Hits: lookups}
	clear(d.Levels[fill+1:])
	d.Memory = Stats{}
	if h.tlb != nil {
		if !tlbSteady {
			d.TLBHits += d.TLBMisses
			d.TLBMisses = 0
		}
		extra += d.TLBMisses * uint64(h.tlb.MissPenalty)
	}
	next.Result = RunResult{
		Accesses: accesses,
		Latency:  accesses*uint64(h.levels[0].cfg.HitLatency) + extra,
		Extra:    extra,
	}
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

// Reset restores exactly what NewHierarchy built: every tag and state
// word cleared, every counter zero and the TLB flushed. The set-major
// scratch stays allocated. The mapper behind the TLB keeps its mappings:
// it is the caller's.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		clear(c.tags)
		clear(c.state)
		c.stats = Stats{}
	}
	h.mem.stats = Stats{}
	if h.tlb != nil {
		h.tlb.Flush()
	}
	h.fresh = true
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
