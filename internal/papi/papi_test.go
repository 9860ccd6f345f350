package papi

import (
	"strings"
	"testing"

	"montblanc/internal/cache"
)

func TestEventNames(t *testing.T) {
	cases := map[Event]string{
		TOT_CYC: "PAPI_TOT_CYC",
		L1_DCA:  "PAPI_L1_DCA",
		L1_DCM:  "PAPI_L1_DCM",
		TLB_DM:  "PAPI_TLB_DM",
		FP_OPS:  "PAPI_FP_OPS",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

func TestAddGet(t *testing.T) {
	c := Counters{}.Add(TOT_CYC, 100).Add(L1_DCA, 40)
	if c.Get(TOT_CYC) != 100 || c.Get(L1_DCA) != 40 {
		t.Errorf("counters = %v", c)
	}
	if c.Get(L2_DCA) != 0 {
		t.Error("absent event should read 0")
	}
	c2 := c.Add(TOT_CYC, 50)
	if c.Get(TOT_CYC) != 100 {
		t.Error("Add mutated the receiver")
	}
	if c2.Get(TOT_CYC) != 150 || c2.Get(L1_DCA) != 40 {
		t.Errorf("Add(TOT_CYC, 50) = %v", c2)
	}
}

func TestFromHierarchy(t *testing.T) {
	l1 := cache.Config{Name: "L1", Level: 1, Size: 1024, LineSize: 64, Associativity: 2, HitLatency: 1}
	l2 := cache.Config{Name: "L2", Level: 2, Size: 4096, LineSize: 64, Associativity: 4, HitLatency: 8}
	h, err := cache.NewHierarchy([]cache.Config{l1, l2}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)  // L1 miss, L2 miss
	h.Access(0, false)  // L1 hit
	h.Access(64, false) // L1 miss, L2 miss
	c := FromHierarchy(h)
	if c.Get(L1_DCA) != 3 || c.Get(L1_DCM) != 2 {
		t.Errorf("L1 counters = %v", c)
	}
	if c.Get(L2_DCA) != 2 || c.Get(L2_DCM) != 2 {
		t.Errorf("L2 counters = %v", c)
	}
	if c.CacheAccesses() != 5 {
		t.Errorf("CacheAccesses = %d, want 5", c.CacheAccesses())
	}
	if got := c.MissRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("MissRatio = %f", got)
	}
}

func TestMissRatioIdle(t *testing.T) {
	if (Counters{}).MissRatio() != 0 {
		t.Error("idle miss ratio != 0")
	}
}

func TestStringStableOrder(t *testing.T) {
	c := Counters{L1_DCM: 1, TOT_CYC: 2, L1_DCA: 3}
	s := c.String()
	if !strings.Contains(s, "PAPI_TOT_CYC=2") {
		t.Errorf("String = %q", s)
	}
	// TOT_CYC (0) must come before L1_DCA (2) and L1_DCM (3).
	if strings.Index(s, "PAPI_TOT_CYC") > strings.Index(s, "PAPI_L1_DCA") {
		t.Errorf("order not stable: %q", s)
	}
	if c.String() != s {
		t.Error("String not deterministic")
	}
}
