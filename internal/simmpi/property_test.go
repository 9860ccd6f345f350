package simmpi

import (
	"testing"
	"testing/quick"

	"montblanc/internal/xrand"
)

// Property: a random but symmetric program of collectives completes
// without deadlock for any rank count, and two executions produce
// identical makespans (determinism of the event engine).
func TestRandomCollectiveProgramsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(10)
		per := 1 + rng.Intn(2)
		nOps := 1 + rng.Intn(6)
		ops := make([]int, nOps)
		sizes := make([]int, nOps)
		for i := range ops {
			ops[i] = rng.Intn(5)
			sizes[i] = 1 + rng.Intn(100000)
		}
		run := func() float64 {
			rep, err := Run(starConfig(ranks, per), func(p *Proc) error {
				for i, op := range ops {
					var err error
					switch op {
					case 0:
						err = p.Barrier()
					case 1:
						err = p.Bcast(i%p.Size(), sizes[i])
					case 2:
						err = p.Allreduce(sizes[i])
					case 3:
						counts := make([]int, p.Size())
						for j := range counts {
							counts[j] = sizes[i] / p.Size()
						}
						err = p.Alltoallv(counts, AlltoallvAlgorithm(i%2))
					case 4:
						err = p.Allgather(sizes[i])
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return -1
			}
			return rep.Seconds
		}
		a := run()
		if a < 0 {
			return false
		}
		return a == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan is monotone in message size for a fixed pattern.
func TestMakespanMonotoneInSizeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		small := 1 + rng.Intn(30000)
		big := small + 1 + rng.Intn(200000)
		measure := func(bytes int) float64 {
			rep, err := Run(starConfig(6, 2), func(p *Proc) error {
				return p.Bcast(0, bytes)
			})
			if err != nil {
				return -1
			}
			return rep.Seconds
		}
		a, b := measure(small), measure(big)
		return a >= 0 && b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendRecv(t *testing.T) {
	rep, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			if err := p.Send(0, 1, 1000); err != nil {
				return err
			}
			return p.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds <= 0 {
		t.Error("self message took no time")
	}
}

func TestZeroByteMessages(t *testing.T) {
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 1, 0)
		}
		return p.Recv(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyTagsInterleaved(t *testing.T) {
	// Messages on distinct tags match by tag, not by arrival order.
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		const n = 16
		if p.Rank() == 0 {
			for tag := 0; tag < n; tag++ {
				if err := p.Send(1, tag, 1000*(tag+1)); err != nil {
					return err
				}
			}
			return nil
		}
		// Receive in reverse tag order.
		for tag := n - 1; tag >= 0; tag-- {
			if err := p.Recv(0, tag); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeNegativeClamped(t *testing.T) {
	rep, err := Run(starConfig(1, 1), func(p *Proc) error {
		p.Compute(-5, "negative")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds != 0 {
		t.Errorf("negative compute advanced the clock: %v", rep.Seconds)
	}
}

// Eager sends are buffered: a rank can send many messages nobody has
// received yet and still make progress.
func TestEagerSendsDoNotBlock(t *testing.T) {
	rep, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 50; i++ {
				if err := p.Send(1, 9, 1000); err != nil {
					return err
				}
			}
			return nil
		}
		p.Compute(1.0, "late start")
		for i := 0; i < 50; i++ {
			if err := p.Recv(0, 9); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender finished long before the receiver started pulling.
	if rep.RankSeconds[0] >= 1.0 {
		t.Errorf("sender blocked until %v", rep.RankSeconds[0])
	}
}

// The drop flag propagates to the receiving rank's counters.
func TestDroppedRecvCounting(t *testing.T) {
	cfg := starConfig(36, 2)
	cfg.CollectTrace = true
	rep, err := Run(cfg, func(p *Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 48 << 10
		}
		return p.Alltoallv(counts, AlltoallvLinear)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops == 0 {
		t.Fatal("precondition: expected drops")
	}
	total := 0
	for _, ivs := range rep.Trace.ByRank {
		for _, iv := range ivs {
			total += iv.Dropped
		}
	}
	if uint64(total) != rep.Drops {
		t.Errorf("interval drop counts %d != network drops %d", total, rep.Drops)
	}
}
