package simmpi

import (
	"testing"
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
