package osmodel

import (
	"testing"

	"montblanc/internal/mem"
	"montblanc/internal/stats"
)

func TestPagePolicyMappers(t *testing.T) {
	if _, ok := ContiguousPages.NewMapper(1).(*mem.ContiguousMapper); !ok {
		t.Error("contiguous policy returned wrong mapper type")
	}
	if _, ok := RandomPages.NewMapper(1).(*mem.RandomMapper); !ok {
		t.Error("random policy returned wrong mapper type")
	}
	if ContiguousPages.String() != "contiguous" || RandomPages.String() != "random" {
		t.Error("policy names wrong")
	}
}

// Outside a degraded window a measurement sees only the small noise:
// its factor stays near one.
func TestRTSchedulerNormalStateNearOne(t *testing.T) {
	s := NewRTScheduler(42)
	s.EnterProb = 0
	for i := 0; i < 5000; i++ {
		f := s.Next()
		if f < 1 || f > 1.2 {
			t.Fatalf("normal-state factor %f out of expected band", f)
		}
	}
}

func TestRTSchedulerDeterministic(t *testing.T) {
	a, b := NewRTScheduler(7), NewRTScheduler(7)
	for i := 0; i < 3000; i++ {
		if a.Next() != b.Next() || a.Degraded() != b.Degraded() {
			t.Fatal("same seed diverged")
		}
	}
}

// The heart of Figure 5: over a long measurement sequence the RT
// scheduler must produce (a) two well-separated modes ~5x apart and
// (b) degraded measurements that are consecutive, i.e. few long streaks
// rather than scattered noise.
func TestRTSchedulerBimodalAndSticky(t *testing.T) {
	const n = 2100 // 42 reps x 50 sizes, as in Figure 5
	foundEpisode := false
	for seed := uint64(0); seed < 10; seed++ {
		s := NewRTScheduler(seed)
		factors := make([]float64, n)
		marks := make([]bool, n)
		for i := range factors {
			factors[i] = s.Next()
			marks[i] = s.Degraded()
		}
		st := stats.FindStreaks(marks)
		if st.Total == 0 {
			continue // this seed never degraded; acceptable for some runs
		}
		foundEpisode = true
		// Degraded measurements must be clustered: few long episodes
		// rather than scattered single points.
		if st.Count > 5 {
			t.Errorf("seed %d: %d separate degraded episodes, want few", seed, st.Count)
		}
		if mean := float64(st.Total) / float64(st.Count); mean < 40 {
			t.Errorf("seed %d: mean episode length %.1f of %d degraded points — not sticky",
				seed, mean, st.Total)
		}
		// Factor separation ~5x between modes.
		m := stats.TwoModes(factors)
		if m.Bimodal && (m.Ratio < 3.5 || m.Ratio > 6.5) {
			t.Errorf("seed %d: mode ratio %.2f, want ~5", seed, m.Ratio)
		}
	}
	if !foundEpisode {
		t.Fatal("no seed in 0..9 produced a degraded episode; EnterProb too low")
	}
}

func TestRTSchedulerDegradedFactor(t *testing.T) {
	s := NewRTScheduler(1)
	s.EnterProb = 1 // force immediate degradation
	f := s.Next()
	if !s.Degraded() {
		t.Fatal("scheduler did not degrade with EnterProb=1")
	}
	if f < 4.5 || f > 5.6 {
		t.Errorf("degraded factor = %f, want ~5", f)
	}
}

func TestRTSchedulerRecovers(t *testing.T) {
	s := NewRTScheduler(1)
	s.EnterProb = 1
	s.Next()
	if !s.Degraded() {
		t.Fatal("did not degrade")
	}
	s.EnterProb = 0
	s.ExitProb = 1
	s.Next() // leaves the window on this step
	if s.Degraded() {
		t.Error("scheduler stuck in degraded state with ExitProb=1")
	}
}

// All scheduler factors are >= 1: the model can only slow a measurement
// down relative to the undisturbed ideal, never speed it up.
func TestFactorsNeverBelowOne(t *testing.T) {
	s := NewRTScheduler(3)
	s.Noise = 0.05
	for i := 0; i < 3000; i++ {
		if f := s.Next(); f < 1 {
			t.Fatalf("factor %f < 1", f)
		}
	}
}
