package cache

import (
	"fmt"
	"testing"

	"montblanc/internal/mem"
	"montblanc/internal/xrand"
)

// stateWords is the length of h's AppendState encoding: a tag and a
// state word per line, then three words per TLB entry.
func stateWords(h *Hierarchy) int {
	n := 0
	for _, l := range h.levels {
		n += 2 * len(l.tags)
	}
	if h.tlb != nil {
		n += 3 * h.tlb.Entries
	}
	return n
}

// The closed-form LRU oracle the steady-pass certificate and the
// settling forecast rest on: one set swept cyclically by k distinct
// lines, k from 1 to 3×ways. After the first pass every lookup hits
// when k <= ways and every lookup misses when k > ways. The state after
// a pass repeats exactly when k <= ways or k is a multiple of the ways;
// otherwise every line keeps its rank but moves to the way that held
// the line k mod ways ranks above it. AccessPass proves the next pass
// exactly when it is known: a pass whose outcome and state both repeat
// (certified), or the cold pass of k <= ways lines, whose next pass
// hits (the settling forecast). Its k > ways passes take the set-major
// route, which accounts all but the first ways misses in closed form.
func TestCyclicSweepLRUOracle(t *testing.T) {
	const line = 64
	for _, ways := range []int{1, 2, 3, 4, 8, 12, 16} {
		for k := 1; k <= 3*ways; k++ {
			h := oneSetHierarchy(ways, line)
			ctx := fmt.Sprintf("%d ways, k=%d", ways, k)
			var prev []uint64
			var next Replay
			var forecast Stats // the L1 movement the previous pass proved, if any
			proved := false
			for pass := 1; pass <= 4; pass++ {
				before := h.Level(0).Stats()
				_, ok := h.AccessPass(0, line, k, &next)
				d := subStats(h.Level(0).Stats(), before)
				hits := 0
				if pass > 1 && k <= ways {
					hits = k
				}
				if d.Hits != uint64(hits) || d.Misses != uint64(k-hits) {
					t.Fatalf("%s pass %d: %d hits, %d misses; want %d, %d", ctx, pass, d.Hits, d.Misses, hits, k-hits)
				}
				if proved && d != forecast {
					t.Fatalf("%s pass %d: L1 moved by %+v, proved %+v", ctx, pass, d, forecast)
				}
				state := h.AppendState(nil)
				if pass > 1 {
					want := prev
					if k > ways && k%ways != 0 {
						want = rotated(prev, ways, k%ways)
						if statesEq(want, prev) {
							t.Fatalf("%s: a rotation by %d left the state unchanged", ctx, k%ways)
						}
					}
					if !statesEq(state, want) {
						t.Fatalf("%s pass %d: state %v, want %v (previous %v)", ctx, pass, state, want, prev)
					}
				}
				if want := k <= ways || k%ways == 0; ok != want {
					t.Fatalf("%s pass %d: proved %v, want %v", ctx, pass, ok, want)
				}
				proved, forecast = ok, next.Delta.Levels[0]
				prev = state
			}
		}
	}
	t.Run("random full set", testTailFromRandomSet)
}

// oneSetHierarchy builds an L1 of one set and no TLB, unvalidated like
// rankTwins so that 3 and 12 ways (not powers of two) are covered too.
func oneSetHierarchy(ways, line int) *Hierarchy {
	cfg := Config{Name: "L1", Level: 1, Size: ways * line, LineSize: line, Associativity: ways, HitLatency: 1}
	return &Hierarchy{levels: []*Cache{newCache(cfg)}, mem: &Memory{Latency: 10}}
}

// A pass of k = ways+1 … 3×ways ascending lines over one full set in a
// random state — a random permutation of ranks, distinct random tags
// that sometimes are lines of the pass, random dirty bits — accounts
// every miss after the first ways in closed form. Its hits, misses,
// write-backs and AppendState, pass after pass, are the scalar loop's.
func testTailFromRandomSet(t *testing.T) {
	const line = 64
	rng := xrand.New(29)
	for _, ways := range []int{1, 2, 3, 4, 8, 12, 16} {
		for k := ways + 1; k <= 3*ways; k++ {
			for draw := 0; draw < 8; draw++ {
				pass, scalar := oneSetHierarchy(ways, line), oneSetHierarchy(ways, line)
				ranks := rng.Perm(ways)
				tags := rng.Perm(4 * ways)
				for w := 0; w < ways; w++ {
					s := uint16(ranks[w])<<rankShift | validBit
					if rng.Uint64()%2 == 0 {
						s |= dirtyBit
					}
					for _, h := range []*Hierarchy{pass, scalar} {
						h.levels[0].tags[w] = uint64(tags[w])
						h.levels[0].state[w] = s
					}
				}
				ctx := fmt.Sprintf("%d ways, k=%d, draw %d", ways, k, draw)
				var next Replay
				for p := 1; p <= 3; p++ {
					pass.AccessPass(0, line, k, &next)
					scalarRun(scalar, segment{stride: line, count: k})
					compareHierarchies(t, scalar, pass, fmt.Sprintf("%s pass %d", ctx, p))
				}
			}
		}
	}
}

// rotated returns the encoding of a full one-set state after one more
// thrashing pass: the line of rank r moves, with its state word, into
// the way that held rank (r+shift) mod ways.
func rotated(state []uint64, ways, shift int) []uint64 {
	wayOf := make([]int, ways) // by rank
	for w := 0; w < ways; w++ {
		wayOf[state[2*w+1]>>rankShift] = w
	}
	out := make([]uint64, len(state))
	for w := 0; w < ways; w++ {
		to := wayOf[(int(state[2*w+1]>>rankShift)+shift)%ways]
		out[2*to], out[2*to+1] = state[2*w], state[2*w+1]
	}
	return out
}

// aliasMapper maps virtual pages onto consecutive physical pages,
// except that the last of four aliases the first: a pass over the four
// looks up every line of page 0 twice.
type aliasMapper struct{}

func (aliasMapper) Translate(va uint64) uint64 {
	if va/mem.PageSize == 3 {
		va -= 3 * mem.PageSize
	}
	return va
}

func (aliasMapper) Reset() {}

// steadyCase is one periodic pass on one hierarchy shape.
type steadyCase struct {
	hc    hierCfg
	alias bool // use aliasMapper instead of hc.mapper
	pass  segment
	warm  []segment // traffic before the first pass
}

func (sc steadyCase) build(t *testing.T) *Hierarchy {
	t.Helper()
	if !sc.alias {
		return sc.hc.build(t)
	}
	h, err := NewHierarchy(sc.hc.levels, sc.hc.memLatency, mem.NewTLB(sc.hc.tlbEntries, sc.hc.tlbPenalty, aliasMapper{}))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// randomSteadyCase draws a hierarchy (mixed line sizes, tiny page
// pools) and a load pass over a power-of-two working set, the shape of
// a membench sweep, so that passes which miss a multiple of a set's
// ways are common. Three passes in four get the set-major route's
// shape, the only one AccessPass proves: every level takes the L1's
// line size, the mapping is contiguous or absent, and a stride above
// the line is rounded down to a multiple of it. Stores come in the warm
// traffic.
func randomSteadyCase(rng *xrand.Rand) steadyCase {
	sc := steadyCase{hc: randomHierCfg(rng)}
	strides := []int{0, 3, 4, 8, 16, 32, 64, 128, 4096, 5000}
	stride := strides[rng.Uint64()%uint64(len(strides))]
	bytes := 1024 << (rng.Uint64() % 8) // 1 KiB to 128 KiB
	count := 1 + int(rng.Uint64()%64)
	va := (rng.Uint64() % 64) * []uint64{1, 32, mem.PageSize}[rng.Uint64()%3]
	if rng.Uint64()%4 != 0 {
		line := sc.hc.levels[0].LineSize
		for i := range sc.hc.levels {
			sc.hc.levels[i].LineSize = line
		}
		sc.hc.mapper %= 2
		if stride > line {
			stride -= stride % line
		}
	}
	if stride > 0 {
		count = (bytes + stride - 1) / stride
	}
	sc.pass = segment{va: va, stride: stride, count: count}
	for i := rng.Uint64() % 3; i > 0; i-- {
		sc.warm = append(sc.warm, randomSegment(rng))
	}
	return sc
}

// The certificate's soundness: whenever AccessPass certifies a pass —
// proves that the next pass repeats it —
// a twin that simulates five more passes sees the certified pass's
// RunResult and counter delta every time and ends in the state the
// certified pass left, which is exactly what replaying the delta with
// AddStats gives. Random hierarchies, and a mapper that aliases the
// last of four virtual pages onto the first: an L1 set then sees
// a, b, c, a per pass — four misses in two ways from cold, which looks
// steady but hits on the second a next time. Only condition 4 (the
// set-major route's shape, which needs a contiguous mapping) refuses it.
func TestCertifiedPassRepeats(t *testing.T) {
	cases := []steadyCase{{
		hc: hierCfg{
			levels:     []Config{{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 2, HitLatency: 2}},
			memLatency: 100,
			tlbEntries: 2, tlbPenalty: 30,
		},
		alias: true,
		pass:  segment{va: 0, stride: 32, count: 4 * mem.PageSize / 32},
	}}
	rng := xrand.New(23)
	for i := 0; i < 400; i++ {
		cases = append(cases, randomSteadyCase(rng))
	}
	certified := 0
	for i, sc := range cases {
		h, twin := sc.build(t), sc.build(t)
		for _, s := range sc.warm {
			h.AccessRun(s.va, s.stride, s.count, s.write)
			twin.AccessRun(s.va, s.stride, s.count, s.write)
		}
		s := sc.pass
		var before, after, delta, twinBefore, twinAfter, twinDelta HierarchyStats
		var next Replay
		for p := 0; p < 4; p++ {
			h.ReadStats(&before)
			rr, proved := h.AccessPass(s.va, s.stride, s.count, &next)
			h.ReadStats(&after)
			delta.sub(&after, &before)
			if twinRR := twin.AccessRun(s.va, s.stride, s.count, false); twinRR != rr {
				t.Fatalf("case %d pass %d: twins diverge: %+v vs %+v", i, p, rr, twinRR)
			}
			// Certified: the pass AccessPass proved is this one. The
			// settling forecast's other passes are TestSettlingPassForecast's.
			if steady := proved && next.Result == rr && sameStats(&next.Delta, &delta); !steady {
				continue
			}
			certified++
			state := h.AppendState(nil)
			ctx := fmt.Sprintf("case %d (%+v, pass %+v) certified on pass %d", i, sc.hc, s, p)
			for extra := 1; extra <= 5; extra++ {
				twin.ReadStats(&twinBefore)
				got := twin.AccessRun(s.va, s.stride, s.count, false)
				twin.ReadStats(&twinAfter)
				twinDelta.sub(&twinAfter, &twinBefore)
				if got != rr {
					t.Fatalf("%s: pass %d later gives %+v, certified %+v", ctx, extra, got, rr)
				}
				if !sameStats(&twinDelta, &delta) {
					t.Fatalf("%s: pass %d later moves counters by %+v, certified %+v", ctx, extra, twinDelta, delta)
				}
				if !statesEq(twin.AppendState(nil), state) {
					t.Fatalf("%s: pass %d later changes the state", ctx, extra)
				}
			}
			h.AddStats(&delta, 5)
			compareHierarchies(t, twin, h, ctx)
			break
		}
	}
	t.Logf("%d of %d passes certified", certified, len(cases))
	if certified < len(cases)/4 {
		t.Fatalf("only %d of %d cases certified a pass; the suite tests too little", certified, len(cases))
	}
}

func sameStats(a, b *HierarchyStats) bool {
	if len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	return a.Memory == b.Memory && a.TLBHits == b.TLBHits && a.TLBMisses == b.TLBMisses
}

// The settling forecast's soundness, and the set-major route's
// exactness: over the random hierarchies of TestCertifiedPassRepeats
// (and 600 more), a TLB that fills while the L1 thrashes and the L2
// fills, an L2 whose lines are twice the L1's, the aliasing mapper
// above an L2, and passes that leave the route in one more respect
// each, every AccessPass leaves the counters and state the
// scalar-equivalent AccessRun leaves on a twin, and whenever it proves
// the next pass, the twin simulates that pass and four more: each gives
// the proved RunResult and counter delta and leaves AppendState as the
// proving pass left it, which is what replaying the delta with AddStats
// gives. The route each pass takes must be the one setMajorShape reads
// off the case's shape, only that route may prove a pass, and enough
// passes must take it.
func TestSettlingPassForecast(t *testing.T) {
	l1 := Config{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 2, HitLatency: 2}
	l2 := Config{Name: "L2", Level: 2, Size: 65536, LineSize: 32, Associativity: 8, HitLatency: 12}
	mapped := func(mapper int) hierCfg {
		return hierCfg{levels: []Config{l1, l2}, memLatency: 100, tlbEntries: 32, tlbPenalty: 30, mapper: mapper, seed: 7}
	}
	// Every L1 set misses 8 lines in 2 ways, every L2 set fills 4 lines
	// in 8 ways and the TLB fills 8 pages in 32 entries: the next pass
	// hits in the L2 and in the TLB.
	cases := []steadyCase{{hc: mapped(1), pass: segment{va: 0, stride: 4, count: 32 * 1024 / 4}}}
	const forecastCases = 1 // the first case, forecast on its first pass
	wide := l2
	wide.LineSize = 64
	mixed := hierCfg{levels: []Config{l1, wide}, memLatency: 100}
	// The L2 looks up each of its lines twice per pass, the second time
	// a hit: the set-major route must not be taken, so no pass of these
	// two is proved, though in the first 8 lookups of 4 lines per set fit
	// the L2's 8 ways (a count of the L2's lookups would forecast it) and
	// in the second, 8 times as long, its sets miss 32 lines.
	cases = append(cases,
		steadyCase{hc: mixed, pass: segment{va: 0, stride: 4, count: 32 * 1024 / 4}},
		steadyCase{hc: mixed, pass: segment{va: 0, stride: 4, count: 256 * 1024 / 4}})
	// TestCertifiedPassRepeats' aliasing mapper above an L2: every L1 set
	// misses a, b, c, a in its 2 ways and every L2 set looks up at most 3
	// lines, but the next L1 pass hits on the second a, so the L2 sees
	// fewer lookups. Only condition 4 refuses the forecast.
	cases = append(cases, steadyCase{
		hc:    hierCfg{levels: []Config{l1, l2}, memLatency: 100, tlbEntries: 2, tlbPenalty: 30},
		alias: true,
		pass:  segment{va: 0, stride: 32, count: 4 * mem.PageSize / 32},
	})
	// Passes off the set-major route: a random page map, a tiny page
	// pool, a stride that is not a multiple of the line, a negative
	// stride, no access, and a range that wraps around the address space.
	// None may be proved, though a count of each level's lookups per set
	// would forecast the first three on their first pass: each holds at
	// most one line per L1 set.
	page := segment{stride: 32, count: mem.PageSize / 32}
	cases = append(cases,
		steadyCase{hc: mapped(2), pass: page},
		steadyCase{hc: mapped(3), pass: page},
		steadyCase{hc: mapped(1), pass: segment{stride: 48, count: mem.PageSize / 48}},
		steadyCase{hc: mapped(1), pass: segment{va: mem.PageSize - 32, stride: -32, count: 128}},
		steadyCase{hc: mapped(1), pass: segment{stride: 32}},
		steadyCase{hc: mapped(0), pass: segment{va: 1<<64 - mem.PageSize/2, stride: 32, count: 128}})
	// Cache.walk keys a pass's lines by a 32-bit index.
	if _, ok := mapped(1).build(t).setMajor(0, 0, 1<<32); ok {
		t.Fatal("a pass of 2^32 accesses takes the set-major route")
	}
	rng := xrand.New(23)
	for i := 0; i < 1000; i++ {
		cases = append(cases, randomSteadyCase(rng))
	}
	certified, forecasts, setMajor, passes := 0, 0, 0, 0
	for i, sc := range cases {
		h, twin := sc.build(t), sc.build(t)
		for _, s := range sc.warm {
			h.AccessRun(s.va, s.stride, s.count, s.write)
			twin.AccessRun(s.va, s.stride, s.count, s.write)
		}
		s := sc.pass
		shape := setMajorShape(sc)
		if _, route := h.setMajor(s.va, s.stride, s.count); route != shape {
			t.Fatalf("case %d (%+v, pass %+v): set-major route %v, shape says %v", i, sc.hc, s, route, shape)
		}
		var before, after, delta, twinBefore, twinAfter, twinDelta HierarchyStats
		var next Replay
		for p := 0; p < 4; p++ {
			ctx := fmt.Sprintf("case %d (%+v, pass %+v) pass %d", i, sc.hc, s, p)
			passes++
			if shape {
				setMajor++
			}
			h.ReadStats(&before)
			rr, proved := h.AccessPass(s.va, s.stride, s.count, &next)
			h.ReadStats(&after)
			delta.sub(&after, &before)
			if twinRR := twin.AccessRun(s.va, s.stride, s.count, false); twinRR != rr {
				t.Fatalf("%s: twins diverge: %+v vs %+v", ctx, rr, twinRR)
			}
			compareHierarchies(t, twin, h, ctx)
			if proved && !shape {
				t.Fatalf("%s: proved off the set-major route", ctx)
			}
			if !proved {
				if i < forecastCases {
					t.Fatalf("%s: not proved", ctx)
				}
				continue
			}
			if next.Result == rr && sameStats(&next.Delta, &delta) {
				certified++
			} else {
				forecasts++
			}
			if i < forecastCases && (p > 0 || next.Result == rr) {
				t.Fatalf("%s: not forecast on the first pass", ctx)
			}
			state := h.AppendState(nil)
			for extra := 1; extra <= 5; extra++ {
				twin.ReadStats(&twinBefore)
				got := twin.AccessRun(s.va, s.stride, s.count, false)
				twin.ReadStats(&twinAfter)
				twinDelta.sub(&twinAfter, &twinBefore)
				if got != next.Result {
					t.Fatalf("%s: pass %d later gives %+v, proved %+v", ctx, extra, got, next.Result)
				}
				if !sameStats(&twinDelta, &next.Delta) {
					t.Fatalf("%s: pass %d later moves counters by %+v, proved %+v", ctx, extra, twinDelta, next.Delta)
				}
				if !statesEq(twin.AppendState(nil), state) {
					t.Fatalf("%s: pass %d later changes the state", ctx, extra)
				}
			}
			h.AddStats(&next.Delta, 5)
			compareHierarchies(t, twin, h, ctx+" after replay")
			break
		}
	}
	t.Logf("%d of %d cases proved the next pass: %d certified, %d forecast", certified+forecasts, len(cases), certified, forecasts)
	if forecasts < len(cases)/5 {
		t.Fatalf("only %d of %d cases forecast a pass; the suite tests too little", forecasts, len(cases))
	}
	t.Logf("%d of %d passes took the set-major route", setMajor, passes)
	if setMajor < passes/8 {
		t.Fatalf("only %d of %d passes took the set-major route; the suite tests too little", setMajor, passes)
	}
}
