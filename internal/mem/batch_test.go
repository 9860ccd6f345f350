package mem

import "testing"

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
