package simmpi

import (
	"runtime"
	"testing"

	"montblanc/internal/network"
)

// The zero-alloc hot-path contract: with tracing off, Send and Recv
// commit through the pooled op structs, the dense pending slice, the
// reused network route buffers and the head-indexed mailbox — so the
// steady state allocates (amortized) nothing per operation. The guard
// asserts <= 1 allocation per op, an order of magnitude above the
// measured steady state (~0.01), so only a structural regression (a
// fresh allocation back on the per-op path) can trip it.
func TestSendRecvAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	cfg := starConfig(2, 1)
	const rounds = 2000
	const opsPerRun = 4 * rounds // 2 ranks x (send + recv) x rounds
	body := func(p *Proc) error {
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				if err := p.Send(1, 1, 1024); err != nil {
					return err
				}
				if err := p.Recv(1, 2); err != nil {
					return err
				}
			} else {
				if err := p.Recv(0, 1); err != nil {
					return err
				}
				if err := p.Send(0, 2, 1024); err != nil {
					return err
				}
			}
		}
		return nil
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		cfg.Net.Reset()
		if _, err := Run(cfg, body); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perOp := allocsPerRun / opsPerRun
	t.Logf("allocs: %.0f per run, %.4f per op", allocsPerRun, perOp)
	if perOp > 1.0 {
		t.Errorf("Send/Recv hot path allocates %.2f per op, want <= 1 (tracing off)", perOp)
	}
}

// A long incast queue (many sends parked for one slow receiver) must
// not allocate per message beyond the amortized queue growth, and the
// head-indexed mailbox must reuse its backing array across drains.
func TestMailboxQueueAllocsAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	cfg := starConfig(2, 1)
	const msgs = 1024
	body := func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := p.Send(1, 9, 256); err != nil {
					return err
				}
			}
			return nil
		}
		p.Compute(1.0, "late start")
		for i := 0; i < msgs; i++ {
			if err := p.Recv(0, 9); err != nil {
				return err
			}
		}
		return nil
	}
	allocsPerRun := testing.AllocsPerRun(3, func() {
		cfg.Net.Reset()
		if _, err := Run(cfg, body); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	perOp := allocsPerRun / (2 * msgs)
	t.Logf("allocs: %.0f per run, %.4f per op", allocsPerRun, perOp)
	if perOp > 1.0 {
		t.Errorf("long-queue path allocates %.2f per op, want <= 1", perOp)
	}
}

// Every rank is a coroutine with its own goroutine stack, which starts
// at the runtime's 2 KiB minimum. One call into the allocator from a
// rank's side of Send or Recv (say, appending to a mailbox free list)
// doubles that stack for the rest of the run, which at 10240 ranks adds
// about 20 MB. A 4096-rank halo reads the stacks in use from one rank
// mid-run, when every rank is suspended, and allows at most 3 KiB each.
func TestRankStacksStayMinimal(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector enlarges goroutine stacks")
	}
	const side = 64
	const ranks = side * side
	var base, mid runtime.MemStats
	probed := false
	body := haloBody(side, side, 4, func(p *Proc, step int) {
		if p.Rank() == 0 && step == 2 {
			runtime.ReadMemStats(&mid)
			probed = true
		}
	})
	cfg := Config{Ranks: ranks, Net: network.Tree(ranks, 32)}
	runtime.GC()
	runtime.ReadMemStats(&base)
	if _, err := Run(cfg, body); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Fatal("rank 0 never reached the probe")
	}
	perRank := (int64(mid.StackInuse) - int64(base.StackInuse)) / ranks
	t.Logf("stack in use: %d B per rank", perRank)
	if perRank > 3<<10 {
		t.Errorf("rank stacks use %d B each mid-run, want at most %d", perRank, 3<<10)
	}
}
