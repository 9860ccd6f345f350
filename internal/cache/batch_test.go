package cache

import (
	"slices"
	"testing"

	"montblanc/internal/mem"
	"montblanc/internal/xrand"
)

// hierCfg describes one randomized hierarchy shape for the equivalence
// property suite.
type hierCfg struct {
	levels     []Config
	memLatency int
	tlbEntries int
	tlbPenalty int
	mapper     int // 0 = none, 1 = contiguous, 2 = random pool, 3 = tiny pool
	seed       uint64
}

// build constructs one hierarchy from the shape. Each call builds a
// fresh, independent instance (including an independent mapper seeded
// identically), so a scalar and a batched twin see the same world.
func (hc hierCfg) build(t *testing.T) *Hierarchy {
	t.Helper()
	var mapper mem.Mapper
	switch hc.mapper {
	case 1:
		mapper = mem.NewContiguousMapper(1 << 20)
	case 2:
		mapper = mem.NewRandomMapper(hc.seed, 1<<12)
	case 3:
		// A tiny pool oversubscribes page colours aggressively: the
		// §V.A.1 conflict regime.
		mapper = mem.NewRandomMapper(hc.seed, 8)
	}
	var tlb *mem.TLB
	if mapper != nil {
		tlb = mem.NewTLB(hc.tlbEntries, hc.tlbPenalty, mapper)
	}
	h, err := NewHierarchy(hc.levels, hc.memLatency, tlb)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func randomHierCfg(rng *xrand.Rand) hierCfg {
	lineSizes := []int{16, 32, 64}
	l1Line := lineSizes[rng.Uint64()%uint64(len(lineSizes))]
	assocs := []int{1, 2, 4, 8}
	hc := hierCfg{
		levels: []Config{{
			Name: "L1", Level: 1,
			Size:          4096 << (rng.Uint64() % 3),
			LineSize:      l1Line,
			Associativity: assocs[rng.Uint64()%uint64(len(assocs))],
			HitLatency:    1 + int(rng.Uint64()%4),
		}},
		memLatency: 50 + int(rng.Uint64()%200),
		tlbEntries: []int{0, 2, 8, 32}[rng.Uint64()%4],
		tlbPenalty: 10 + int(rng.Uint64()%40),
		mapper:     int(rng.Uint64() % 4),
		seed:       rng.Uint64(),
	}
	if rng.Uint64()%2 == 0 {
		hc.levels = append(hc.levels, Config{
			Name: "L2", Level: 2,
			Size:          64 * 1024,
			LineSize:      l1Line << (rng.Uint64() % 2),
			Associativity: 8,
			HitLatency:    8 + int(rng.Uint64()%20),
		})
	}
	return hc
}

// segment is one randomized AccessRun request.
type segment struct {
	va     uint64
	stride int
	count  int
	write  bool
}

func randomSegment(rng *xrand.Rand) segment {
	strides := []int{0, 1, 3, 4, 7, 8, 16, 31, 32, 64, 100, 256, 1024, 4096, 5000, 8192, -8, -64, -1}
	return segment{
		va:     rng.Uint64() % (1 << 18),
		stride: strides[rng.Uint64()%uint64(len(strides))],
		count:  1 + int(rng.Uint64()%700),
		write:  rng.Uint64()%2 == 0,
	}
}

// scalarRun replays a segment through the scalar reference path,
// aggregating the way AccessRun does.
func scalarRun(h *Hierarchy, s segment) RunResult {
	var rr RunResult
	l1Hit := h.L1HitLatency()
	va := s.va
	for i := 0; i < s.count; i++ {
		lat := h.Access(va, s.write)
		rr.Accesses++
		rr.Latency += uint64(lat)
		if lat > l1Hit {
			rr.Extra += uint64(lat - l1Hit)
		}
		if s.stride >= 0 {
			va += uint64(s.stride)
		} else {
			va -= uint64(-s.stride)
		}
	}
	return rr
}

func compareHierarchies(t *testing.T, scalar, batched *Hierarchy, ctx string) {
	t.Helper()
	for i := 0; i < scalar.Depth(); i++ {
		if a, b := scalar.Level(i).Stats(), batched.Level(i).Stats(); a != b {
			t.Fatalf("%s: level %d stats diverge: scalar %+v batched %+v", ctx, i, a, b)
		}
	}
	if a, b := scalar.Memory().Stats(), batched.Memory().Stats(); a != b {
		t.Fatalf("%s: memory stats diverge: scalar %+v batched %+v", ctx, a, b)
	}
	sh, sm, sp := scalar.TLBStats()
	bh, bm, bp := batched.TLBStats()
	if sh != bh || sm != bm || sp != bp {
		t.Fatalf("%s: TLB stats diverge: scalar %d/%d/%v batched %d/%d/%v",
			ctx, sh, sm, sp, bh, bm, bp)
	}
	sa := scalar.AppendState(nil)
	ba := batched.AppendState(nil)
	if len(sa) != len(ba) {
		t.Fatalf("%s: state encoding lengths diverge: %d vs %d", ctx, len(sa), len(ba))
	}
	for i := range sa {
		if sa[i] != ba[i] {
			t.Fatalf("%s: canonical state diverges at word %d", ctx, i)
		}
	}
}

// The core batched-engine contract: AccessRun is exactly equivalent to
// the scalar Access loop — same aggregate latency, same per-level
// Stats, same TLB counters, same replacement state — over randomized
// hierarchies, mappers (including the tiny-pool page-colour conflict
// regime), strides (zero, negative, sub-line, super-page) and write
// mixes.
func TestAccessRunMatchesScalar(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 40; trial++ {
		hc := randomHierCfg(rng)
		scalar := hc.build(t)
		batched := hc.build(t)
		for seg := 0; seg < 12; seg++ {
			s := randomSegment(rng)
			want := scalarRun(scalar, s)
			got := batched.AccessRun(s.va, s.stride, s.count, s.write)
			if want != got {
				t.Fatalf("trial %d seg %d (%+v): aggregates diverge: scalar %+v batched %+v",
					trial, seg, s, want, got)
			}
			compareHierarchies(t, scalar, batched, "mid-run")
		}
		// The state equivalence must carry forward: a scalar probe
		// sequence behaves identically on both hierarchies afterwards.
		for probe := 0; probe < 200; probe++ {
			va := rng.Uint64() % (1 << 18)
			w := rng.Uint64()%2 == 0
			if a, b := scalar.Access(va, w), batched.Access(va, w); a != b {
				t.Fatalf("trial %d probe %d: post-run latency diverges: %d vs %d", trial, probe, a, b)
			}
		}
		compareHierarchies(t, scalar, batched, "post-probe")
	}
}

// Zero and one-count runs, and a count that exactly fills lines and
// pages, hit the segmentation boundaries.
func TestAccessRunBoundaries(t *testing.T) {
	hc := hierCfg{
		levels:     []Config{{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 4, HitLatency: 2}},
		memLatency: 100,
		tlbEntries: 4, tlbPenalty: 20, mapper: 2, seed: 9,
	}
	scalar := hc.build(t)
	batched := hc.build(t)
	if got := batched.AccessRun(123, 8, 0, false); got != (RunResult{}) {
		t.Fatalf("zero-count run returned %+v", got)
	}
	for _, s := range []segment{
		{va: 0, stride: 8, count: 1},
		{va: 31, stride: 1, count: 2},                   // crosses a line boundary mid-pair
		{va: 0, stride: 32, count: 256},                 // line-exact strides across 2 pages
		{va: mem.PageSize - 4, stride: 4, count: 3},     // crosses a page boundary
		{va: 5, stride: 0, count: 1000},                 // one address, many touches
		{va: 3 * mem.PageSize, stride: 4096, count: 16}, // page-exact stride
		{va: 1 << 20, stride: 13, count: 997, write: true},
	} {
		want := scalarRun(scalar, s)
		got := batched.AccessRun(s.va, s.stride, s.count, s.write)
		if want != got {
			t.Fatalf("segment %+v: %+v vs %+v", s, want, got)
		}
		compareHierarchies(t, scalar, batched, "boundary")
	}
}

// ResetStats must cover every counter the batched path bulk-updates:
// cache levels, the DRAM backstop and the TLB. After reset-then-run,
// the absolute counters equal the counter *movement* of the same run on
// a warm twin that was never reset.
func TestResetStatsThenRunSeesOnlyTheRun(t *testing.T) {
	hc := hierCfg{
		levels: []Config{
			{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 4, HitLatency: 2},
			{Name: "L2", Level: 2, Size: 65536, LineSize: 32, Associativity: 8, HitLatency: 12},
		},
		memLatency: 100,
		tlbEntries: 8, tlbPenalty: 25, mapper: 2, seed: 11,
	}
	reset := hc.build(t)
	warm := hc.build(t)
	warmTraffic := func(h *Hierarchy) {
		h.AccessRun(0, 8, 4096, false)
		h.AccessRun(1<<16, 64, 512, true)
	}
	warmTraffic(reset)
	warmTraffic(warm)

	reset.ResetStats()
	for i := 0; i < reset.Depth(); i++ {
		if st := reset.Level(i).Stats(); st != (Stats{}) {
			t.Fatalf("level %d stats not zeroed: %+v", i, st)
		}
	}
	if st := reset.Memory().Stats(); st != (Stats{}) {
		t.Fatalf("memory stats not zeroed: %+v", st)
	}
	if h, m, ok := reset.TLBStats(); !ok || h != 0 || m != 0 {
		t.Fatalf("TLB stats not zeroed: %d/%d (present %v)", h, m, ok)
	}

	var before, after, delta HierarchyStats
	warm.ReadStats(&before)
	measured := func(h *Hierarchy) {
		h.AccessRun(0, 8, 4096, false)
		h.AccessRun(1<<18, 4, 2048, true)
	}
	measured(warm)
	measured(reset)
	warm.ReadStats(&after)
	delta.sub(&after, &before)
	for i := 0; i < reset.Depth(); i++ {
		if st := reset.Level(i).Stats(); st != delta.Levels[i] {
			t.Fatalf("level %d: reset-then-run %+v != warm delta %+v", i, st, delta.Levels[i])
		}
	}
	if st := reset.Memory().Stats(); st != delta.Memory {
		t.Fatalf("memory: reset-then-run %+v != warm delta %+v", st, delta.Memory)
	}
	h2, m2, _ := reset.TLBStats()
	if h2 != delta.TLBHits || m2 != delta.TLBMisses {
		t.Fatalf("TLB: reset-then-run %d/%d != warm delta %d/%d",
			h2, m2, delta.TLBHits, delta.TLBMisses)
	}
}

// A fixed strided pass over a fixed mapping reaches a canonical-state
// fixed point after warm-up, and AddStats replay of further passes is
// exactly what re-simulating them would have produced — counters and
// subsequent behaviour both.
func TestFixedPointReplayIsExact(t *testing.T) {
	hc := hierCfg{
		levels: []Config{
			{Name: "L1", Level: 1, Size: 8192, LineSize: 32, Associativity: 4, HitLatency: 2},
			{Name: "L2", Level: 2, Size: 32768, LineSize: 32, Associativity: 8, HitLatency: 12},
		},
		memLatency: 120,
		tlbEntries: 8, tlbPenalty: 25, mapper: 2, seed: 5,
	}
	replayed := hc.build(t)
	simulated := hc.build(t)
	pass := func(h *Hierarchy) RunResult { return h.AccessRun(0, 8, 8192, false) }

	// Warm both to the fixed point.
	var prev, cur []uint64
	for p := 0; p < 8; p++ {
		pass(replayed)
		pass(simulated)
		prev, cur = cur, prev
		cur = replayed.AppendState(cur[:0])
		if p > 0 && statesEq(prev, cur) {
			break
		}
		if p == 7 {
			t.Fatal("pass never reached a fixed point")
		}
	}

	// Capture one steady pass's delta on the replay twin.
	var before, after, delta HierarchyStats
	replayed.ReadStats(&before)
	rrA := pass(replayed)
	replayed.ReadStats(&after)
	delta.sub(&after, &before)
	post := replayed.AppendState(nil)
	if !statesEq(post, cur) {
		t.Fatal("capture pass moved the canonical state")
	}
	rrB := pass(simulated)
	if rrA != rrB {
		t.Fatalf("steady passes disagree: %+v vs %+v", rrA, rrB)
	}

	// Replay 5 passes on one twin, simulate them on the other.
	const extra = 5
	replayed.AddStats(&delta, extra)
	for i := 0; i < extra; i++ {
		if rr := pass(simulated); rr != rrA {
			t.Fatalf("simulated pass %d diverged from steady aggregate", i)
		}
	}
	compareHierarchies(t, simulated, replayed, "post-replay")

	// And both twins keep behaving identically on fresh traffic.
	for probe := 0; probe < 300; probe++ {
		va := uint64(probe*52 + 17)
		if a, b := simulated.Access(va, probe%3 == 0), replayed.Access(va, probe%3 == 0); a != b {
			t.Fatalf("probe %d: %d vs %d", probe, a, b)
		}
	}
}

func statesEq(a, b []uint64) bool { return slices.Equal(a, b) }

// The AppendState encoding has two words per line and three per TLB
// slot, and it excludes counters: resetting stats must not move the
// state.
func TestStateEncodingShape(t *testing.T) {
	hc := hierCfg{
		levels: []Config{
			{Name: "L1", Level: 1, Size: 4096, LineSize: 32, Associativity: 2, HitLatency: 1},
			{Name: "L2", Level: 2, Size: 16384, LineSize: 64, Associativity: 4, HitLatency: 9},
		},
		memLatency: 80,
		tlbEntries: 4, tlbPenalty: 30, mapper: 1,
	}
	h := hc.build(t)
	if got, want := len(h.AppendState(nil)), stateWords(h); got != want {
		t.Fatalf("encoded %d words, want %d", got, want)
	}
	h.AccessRun(0, 16, 3000, true)
	before := h.AppendState(nil)
	h.ResetStats()
	after := h.AppendState(nil)
	if !statesEq(before, after) {
		t.Fatal("ResetStats moved the canonical state")
	}
}
