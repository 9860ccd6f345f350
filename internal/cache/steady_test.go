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

// The closed-form LRU oracle the steady-pass certificate rests on: one
// set swept cyclically by k distinct lines, k from 1 to 3×ways. After
// the first pass every lookup hits when k <= ways and every lookup
// misses when k > ways. The state after a pass repeats exactly when
// k <= ways or k is a multiple of the ways; otherwise every line keeps
// its rank but moves to the way that held the line k mod ways ranks
// above it. AccessPass certifies exactly the passes whose outcome and
// state both repeat.
func TestCyclicSweepLRUOracle(t *testing.T) {
	const line = 64
	for _, ways := range []int{1, 2, 3, 4, 8, 12, 16} {
		for k := 1; k <= 3*ways; k++ {
			// One set, built unvalidated like rankTwins so that 3 and 12
			// ways (not powers of two) are covered too.
			cfg := Config{Name: "L1", Level: 1, Size: ways * line, LineSize: line, Associativity: ways, HitLatency: 1}
			h := &Hierarchy{levels: []*Cache{newCache(cfg)}, mem: &Memory{Latency: 10}}
			ctx := fmt.Sprintf("%d ways, k=%d", ways, k)
			var prev []uint64
			for pass := 1; pass <= 4; pass++ {
				before := h.Level(0).Stats()
				_, steady := h.AccessPass(0, line, k, false)
				d := subStats(h.Level(0).Stats(), before)
				hits := 0
				if pass > 1 && k <= ways {
					hits = k
				}
				if d.Hits != uint64(hits) || d.Misses != uint64(k-hits) {
					t.Fatalf("%s pass %d: %d hits, %d misses; want %d, %d", ctx, pass, d.Hits, d.Misses, hits, k-hits)
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
				if want := (pass > 1 && k <= ways) || (k > ways && k%ways == 0); steady != want {
					t.Fatalf("%s pass %d: certified %v, want %v", ctx, pass, steady, want)
				}
				prev = state
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

// randomSteadyCase draws a hierarchy (mixed line sizes, stores, tiny
// page pools) and a pass over a power-of-two working set, the shape of
// a membench sweep, so that passes which miss a multiple of a set's
// ways are common.
func randomSteadyCase(rng *xrand.Rand) steadyCase {
	sc := steadyCase{hc: randomHierCfg(rng)}
	strides := []int{0, 3, 4, 8, 16, 32, 64, 128, 4096, 5000}
	stride := strides[rng.Uint64()%uint64(len(strides))]
	bytes := 1024 << (rng.Uint64() % 8) // 1 KiB to 128 KiB
	count := 1 + int(rng.Uint64()%64)
	if stride > 0 {
		count = (bytes + stride - 1) / stride
	}
	sc.pass = segment{
		va:     (rng.Uint64() % 64) * []uint64{1, 32, mem.PageSize}[rng.Uint64()%3],
		stride: stride,
		count:  count,
		write:  rng.Uint64()%4 == 0,
	}
	for i := rng.Uint64() % 3; i > 0; i-- {
		sc.warm = append(sc.warm, randomSegment(rng))
	}
	return sc
}

// The certificate's soundness: whenever AccessPass certifies a pass,
// a twin that simulates five more passes sees the certified pass's
// RunResult and counter delta every time and ends in the state the
// certified pass left, which is exactly what replaying the delta with
// AddStats gives. Random hierarchies, and a mapper that aliases the
// last of four virtual pages onto the first: an L1 set then sees
// a, b, c, a per pass — four misses in two ways from cold, which looks
// steady but hits on the second a next time. Only condition 4 (pages
// ascend) refuses it.
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
		for p := 0; p < 4; p++ {
			h.ReadStats(&before)
			rr, steady := h.AccessPass(s.va, s.stride, s.count, s.write)
			h.ReadStats(&after)
			delta.Delta(&after, &before)
			if twinRR := twin.AccessRun(s.va, s.stride, s.count, s.write); twinRR != rr {
				t.Fatalf("case %d pass %d: twins diverge: %+v vs %+v", i, p, rr, twinRR)
			}
			if !steady {
				continue
			}
			certified++
			state := h.AppendState(nil)
			ctx := fmt.Sprintf("case %d (%+v, pass %+v) certified on pass %d", i, sc.hc, s, p)
			for extra := 1; extra <= 5; extra++ {
				twin.ReadStats(&twinBefore)
				got := twin.AccessRun(s.va, s.stride, s.count, s.write)
				twin.ReadStats(&twinAfter)
				twinDelta.Delta(&twinAfter, &twinBefore)
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
