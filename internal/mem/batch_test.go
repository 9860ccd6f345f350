package mem

import (
	"fmt"
	"slices"
	"testing"

	"montblanc/internal/xrand"
)

// TranslateRun must be exactly equivalent to n consecutive Translate
// calls on addresses of one page: same physical address, same first-
// access cost, same hit/miss counters, same LRU state afterwards.
func TestTranslateRunMatchesScalar(t *testing.T) {
	build := func() (*TLB, *TLB) {
		return NewTLB(4, 30, NewRandomMapper(3, 64)), NewTLB(4, 30, NewRandomMapper(3, 64))
	}
	scalar, batched := build()
	pages := []uint64{0, 1, 2, 5, 1, 0, 9, 2, 5, 5, 0, 7, 8, 9, 1}
	for _, vpn := range pages {
		for _, n := range []int{1, 2, 7} {
			base := vpn * PageSize
			wantPA, wantCyc := scalar.Translate(base)
			for i := 1; i < n; i++ {
				if _, c := scalar.Translate(base + uint64(i)*8); c != 0 {
					t.Fatalf("vpn %d: follow-up translate cost %d, want 0", vpn, c)
				}
			}
			gotPA, gotCyc := batched.TranslateRun(base, n)
			if wantPA != gotPA || wantCyc != gotCyc {
				t.Fatalf("vpn %d n=%d: (%d,%d) vs (%d,%d)", vpn, n, wantPA, wantCyc, gotPA, gotCyc)
			}
			sh, sm := scalar.Stats()
			bh, bm := batched.Stats()
			if sh != bh || sm != bm {
				t.Fatalf("vpn %d n=%d: counters diverge %d/%d vs %d/%d", vpn, n, sh, sm, bh, bm)
			}
		}
	}
	// The LRU state must match too: further scalar traffic behaves
	// identically on both.
	for vpn := uint64(0); vpn < 12; vpn++ {
		_, a := scalar.Translate(vpn * PageSize)
		_, b := batched.Translate(vpn * PageSize)
		if a != b {
			t.Fatalf("post-run vpn %d: costs diverge %d vs %d", vpn, a, b)
		}
	}
}

// A pass-through TLB (no entries, or no mapper) keeps TranslateRun
// working as a plain translation.
func TestTranslateRunPassThrough(t *testing.T) {
	identity := NewTLB(0, 0, nil)
	if pa, c := identity.TranslateRun(12345, 10); pa != 12345 || c != 0 {
		t.Fatalf("identity: (%d,%d)", pa, c)
	}
	mapped := NewTLB(0, 30, NewContiguousMapper(1<<20))
	if pa, c := mapped.TranslateRun(100, 5); pa != 1<<20+100 || c != 0 {
		t.Fatalf("disabled TLB with mapper: (%d,%d)", pa, c)
	}
	if h, m := mapped.Stats(); h != 0 || m != 0 {
		t.Fatalf("pass-through TLB counted %d/%d", h, m)
	}
}

// ResetStats zeroes the counters but keeps translations warm, unlike
// Flush which drops both.
func TestTLBResetStatsKeepsEntries(t *testing.T) {
	tlb := NewTLB(4, 30, NewRandomMapper(1, 64))
	tlb.Translate(0)
	tlb.Translate(PageSize)
	tlb.ResetStats()
	if h, m := tlb.Stats(); h != 0 || m != 0 {
		t.Fatalf("counters survived reset: %d/%d", h, m)
	}
	if _, c := tlb.Translate(8); c != 0 {
		t.Fatal("warm entry missed after ResetStats")
	}
	tlb.Flush()
	if _, c := tlb.Translate(8); c == 0 {
		t.Fatal("entry survived Flush")
	}
}

// AddStats advances the counters without touching state.
func TestTLBAddStats(t *testing.T) {
	tlb := NewTLB(2, 10, NewContiguousMapper(0))
	tlb.Translate(0)
	before := tlb.AppendState(nil)
	tlb.AddStats(7, 3)
	h, m := tlb.Stats()
	if h != 7 || m != 4 { // 1 cold miss + 3 added
		t.Fatalf("counters %d/%d, want 7/4", h, m)
	}
	after := tlb.AppendState(nil)
	if len(before) != len(after) {
		t.Fatal("encoding length changed")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("AddStats moved the canonical state")
		}
	}
}

// The canonical encoding has the documented length and tracks LRU
// movement: re-touching an entry reorders ranks and changes the
// encoding, while counters do not appear in it.
func TestTLBAppendState(t *testing.T) {
	tlb := NewTLB(3, 10, NewContiguousMapper(0))
	if got, want := len(tlb.AppendState(nil)), 3*tlb.Entries; got != want {
		t.Fatalf("encoded %d words, want 3 per entry: %d", got, want)
	}
	tlb.Translate(0)
	tlb.Translate(PageSize)
	a := tlb.AppendState(nil)
	tlb.Translate(16) // re-touch page 0: LRU order flips
	b := tlb.AppendState(nil)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("LRU reordering not visible in the encoding")
	}
}

// walkSweep is the page walk TranslateSweep replaces on an empty TLB:
// TranslateRun over each page segment of the sweep, in order.
func walkSweep(t *TLB, va, stride uint64, count int) (pages, cycles uint64) {
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

// sweepCount returns a count for an ascending sweep from va, stride
// bytes apart, that visits exactly pages pages, drawn at random among
// the counts that do.
func sweepCount(rng *xrand.Rand, va, stride, pages uint64) int {
	switch {
	case stride == 0:
		return 1 + rng.Intn(64) // pages is 1
	case stride >= PageSize:
		return int(pages)
	}
	page := va/PageSize + pages - 1 // the last page
	lo := uint64(0)                 // the first and last access on it
	if pages > 1 {
		lo = (page*PageSize - va + stride - 1) / stride
	}
	hi := ((page+1)*PageSize - 1 - va) / stride
	return int(lo + rng.Uint64()%(hi-lo+1) + 1)
}

// On an empty TLB TranslateSweep is in closed form; it must leave what
// TranslateRun over each page segment leaves: the segment count, the
// cycles, the counters, AppendState, and the same answers to a random
// translation sequence afterwards (which also sees the clock and the
// mapper's state). Random entry counts, strides of 0, under a page, a
// page, several pages and not a power of two, random offsets, random or
// contiguous mappings, and page counts P < E, P = E and P = kE, kE±1.
// A TLB warmed and then flushed is empty too; a warm one walks.
func TestTranslateSweepClosedForm(t *testing.T) {
	rng := xrand.New(41)
	strides := []uint64{0, 8, 64, 1000, 3000, PageSize, 5000, 2 * PageSize, 3*PageSize + 8}
	regimes := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		entries := 1 + rng.Intn(48)
		e := uint64(entries)
		stride := strides[rng.Intn(len(strides))]
		k := 1 + rng.Uint64()%4
		regime := []string{"P < E", "P = E", "P = kE", "P = kE+1", "P = kE-1"}[rng.Intn(5)]
		pages := map[string]uint64{"P < E": 1 + rng.Uint64()%e, "P = E": e, "P = kE": k * e, "P = kE+1": k*e + 1, "P = kE-1": k*e - 1}[regime]
		if pages == 0 || stride == 0 {
			pages, regime = 1, "P = 1"
		}
		va := rng.Uint64()%(1<<20)*PageSize + rng.Uint64()%PageSize
		count := sweepCount(rng, va, stride, pages)
		seed, contiguous := rng.Uint64(), rng.Intn(2) == 0
		mapper := func() Mapper {
			if contiguous {
				return NewContiguousMapper(seed % (1 << 40))
			}
			return NewRandomMapper(seed, 1<<12)
		}
		closed, walked := NewTLB(entries, 25, mapper()), NewTLB(entries, 25, mapper())
		warm := rng.Intn(3) // 0: fresh, 1: warm then flushed, 2: warm
		for _, tlb := range []*TLB{closed, walked} {
			r := xrand.New(seed)
			for i := 0; i < 2*entries && warm > 0; i++ {
				tlb.Translate(va + (r.Uint64()%(4*e)-2*e)*PageSize)
			}
			if warm == 1 {
				tlb.Flush()
			}
		}
		if closed.empty() != (warm < 2) {
			t.Fatalf("trial %d: empty() = %v after warm state %d", trial, closed.empty(), warm)
		}
		if warm < 2 {
			regimes[regime]++
		}
		ctx := fmt.Sprintf("trial %d (%d entries, stride %d, %d pages, count %d, va %#x, warm state %d)", trial, entries, stride, pages, count, va, warm)
		gotPages, gotCycles := closed.TranslateSweep(va, stride, count)
		wantPages, wantCycles := walkSweep(walked, va, stride, count)
		if gotPages != wantPages || gotCycles != wantCycles || gotPages != pages {
			t.Fatalf("%s: %d pages, %d cycles; the walk gives %d, %d", ctx, gotPages, gotCycles, wantPages, wantCycles)
		}
		compareTLBs(t, closed, walked, ctx)
		r := xrand.New(seed + 1)
		last := (va + uint64(count-1)*stride) / PageSize
		for i := 0; i < 3*entries; i++ {
			v := (last+e-r.Uint64()%(3*e))*PageSize + r.Uint64()%PageSize
			pa, c := closed.Translate(v)
			wantPA, wantC := walked.Translate(v)
			if pa != wantPA || c != wantC {
				t.Fatalf("%s: follow-up %d at %#x gives (%#x, %d), the walk (%#x, %d)", ctx, i, v, pa, c, wantPA, wantC)
			}
		}
		compareTLBs(t, closed, walked, ctx+" after the follow-up")
	}
	t.Logf("closed-form sweeps by page count: %v", regimes)
	for _, r := range []string{"P < E", "P = E", "P = kE", "P = kE+1", "P = kE-1"} {
		if regimes[r] == 0 {
			t.Fatalf("no closed-form sweep with %s", r)
		}
	}
}

func compareTLBs(t *testing.T, got, want *TLB, ctx string) {
	t.Helper()
	gh, gm := got.Stats()
	wh, wm := want.Stats()
	if gh != wh || gm != wm {
		t.Fatalf("%s: %d hits, %d misses; the walk gives %d, %d", ctx, gh, gm, wh, wm)
	}
	if g, w := got.AppendState(nil), want.AppendState(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: state %v, the walk leaves %v", ctx, g, w)
	}
}
