package simmpi

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"montblanc/internal/network"
	"montblanc/internal/trace"
)

func starConfig(ranks, ranksPerNode int) Config {
	nodes := (ranks + ranksPerNode - 1) / ranksPerNode
	return Config{
		Ranks:        ranks,
		RanksPerNode: ranksPerNode,
		Net:          network.Star(nodes),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	if err := (Config{Ranks: 4}).Validate(); err == nil {
		t.Error("nil network accepted")
	}
	c := starConfig(8, 2)
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	c.Ranks = 100 // 50 nodes needed, star has 4
	if err := c.Validate(); err == nil {
		t.Error("oversubscribed network accepted")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	rep, err := Run(starConfig(1, 1), func(p *Proc) error {
		p.Compute(1.5, "work")
		p.Compute(0.5, "more")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds != 2.0 {
		t.Errorf("makespan = %v, want 2.0", rep.Seconds)
	}
}

func TestComputeFlops(t *testing.T) {
	cfg := starConfig(1, 1)
	cfg.CoreFlopsPerSec = 2e9
	rep, err := Run(cfg, func(p *Proc) error {
		p.ComputeFlops(4e9, "flops")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds != 2.0 {
		t.Errorf("makespan = %v, want 2.0", rep.Seconds)
	}
}

// An analytic oracle for point-to-point timing on an idle fabric. On
// Star(2) a message crosses two GigE hops (node->switch, switch->node),
// each costing its latency plus bytes/bandwidth, store-and-forward. A
// rendezvous message (above EagerThreshold) first pays a request and
// clear-to-send handshake: two latencies per hop. The sender resumes
// after SendOverhead plus its memcpy at CopyBandwidth; the receiver
// completes a copy at CopyBandwidth after the last byte arrives. Every
// rank's finish time must equal the closed form to rounding.
func TestSendRecvTiming(t *testing.T) {
	const (
		hops          = 2
		sendOverhead  = 3e-6
		copyBandwidth = 400e6
		tol           = 1e-12
	)
	// oneWay is the network time of one message, post to last byte.
	oneWay := func(bytes int) float64 {
		a := hops * (network.GigELatency + float64(bytes)/network.GigEBandwidth)
		if bytes > EagerThreshold {
			a += hops * 2 * network.GigELatency
		}
		return a
	}
	for _, tc := range []struct {
		name   string
		bytes  int
		rounds int // 0: one send from rank 0 to rank 1; else a ping-pong
	}{
		{"eager-empty", 0, 0},
		{"eager-1B", 1, 0},
		{"eager-1KiB", 1 << 10, 0},
		{"eager-1ms-per-hop", 125000, 0},
		{"eager-at-threshold", EagerThreshold, 0},
		{"rendezvous-above-threshold", EagerThreshold + 1, 0},
		{"rendezvous-256KiB", 256 << 10, 0},
		{"rendezvous-4MiB", 4 << 20, 0},
		{"pingpong-10x4KiB", 4 << 10, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := starConfig(2, 1)
			cfg.SendOverhead = sendOverhead
			cfg.CopyBandwidth = copyBandwidth
			rep, err := Run(cfg, func(p *Proc) error {
				peer := 1 - p.Rank()
				if tc.rounds == 0 {
					if p.Rank() == 0 {
						return p.Send(peer, 7, tc.bytes)
					}
					return p.Recv(peer, 7)
				}
				for i := 0; i < tc.rounds; i++ {
					if p.Rank() == 0 {
						if err := p.Send(peer, i, tc.bytes); err != nil {
							return err
						}
						if err := p.Recv(peer, i); err != nil {
							return err
						}
						continue
					}
					if err := p.Recv(peer, i); err != nil {
						return err
					}
					if err := p.Send(peer, i, tc.bytes); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			a := oneWay(tc.bytes)
			copyCost := float64(tc.bytes) / copyBandwidth
			post := sendOverhead + copyCost
			var want [2]float64
			if tc.rounds == 0 {
				want = [2]float64{post, a + copyCost}
			} else {
				// Each round trip is two one-way trips and two receive
				// copies; rank 1 ends on its last send.
				round := 2 * (a + copyCost)
				n := float64(tc.rounds)
				want = [2]float64{n * round, (n-1)*round + a + copyCost + post}
			}
			for r, w := range want {
				if got := rep.RankSeconds[r]; math.Abs(got-w) > tol*w {
					t.Errorf("rank %d finished at %.17g s, closed form %.17g s", r, got, w)
				}
			}
			if rep.Drops != 0 {
				t.Errorf("idle fabric dropped %d messages", rep.Drops)
			}
		})
	}
}

func TestRecvBeforeSendCompletes(t *testing.T) {
	// Receiver posts recv immediately; sender computes 1s first. The
	// receiver must wait for the message, not complete early.
	rep, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(1.0, "delay")
			return p.Send(1, 1, 1000)
		}
		return p.Recv(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RankSeconds[1] < 1.0 {
		t.Errorf("receiver finished at %v, before the send happened", rep.RankSeconds[1])
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two messages same (src,dst,tag): the first recv gets the first.
	rep, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			if err := p.Send(1, 5, 125000); err != nil {
				return err
			}
			return p.Send(1, 5, 125)
		}
		if err := p.Recv(0, 5); err != nil {
			return err
		}
		first := p.Now()
		if err := p.Recv(0, 5); err != nil {
			return err
		}
		if p.Now() < first {
			return errors.New("second recv completed before first")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestDeadlockDetection(t *testing.T) {
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		// Both ranks receive from each other; nobody sends.
		return p.Recv(1-p.Rank(), 9)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestDeadlockReportsActualPendingOps(t *testing.T) {
	// A three-rank recv cycle: the report must name rank 0's actual
	// pending operation (source and tag) and tally the others by kind
	// instead of assuming everything stuck is a recv.
	_, err := Run(starConfig(3, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Recv(2, 5)
		}
		return p.Recv(p.Rank()-1, 7)
	})
	if err == nil {
		t.Fatal("recv cycle completed")
	}
	for _, want := range []string{
		"deadlock", "rank 0", "recv from 2 tag 5", "2 more ranks blocked", "3 recv",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error %q missing %q", err, want)
		}
	}
}

// A stalled run must not leave its ranks behind: every rank suspended
// in a recv cycle is unwound when Run reports the deadlock, including a
// body that ignores Recv's error and would otherwise loop forever.
func TestDeadlockReleasesRanks(t *testing.T) {
	const ranks = 64
	prev := func(p *Proc) int { return (p.Rank() + ranks - 1) % ranks }
	for _, tc := range []struct {
		name string
		body func(*Proc) error
	}{
		{"returns", func(p *Proc) error { return p.Recv(prev(p), 0) }},
		{"ignores-errors", func(p *Proc) error {
			for {
				_ = p.Recv(prev(p), 0)
			}
		}},
	} {
		base := runtime.NumGoroutine()
		if _, err := Run(starConfig(ranks, 2), tc.body); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("%s: err = %v, want deadlock", tc.name, err)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		if n > base {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, n, base)
		}
	}
}

// Any rank error wins over what it causes: a rank that fails leaves its
// peers waiting on it, and the run reports the failure, not the
// resulting deadlock.
func TestRankErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		body func(*Proc) error
	}{
		{"peers-exit", func(p *Proc) error {
			if p.Rank() == 1 {
				return boom
			}
			return nil
		}},
		{"peer-waits", func(p *Proc) error {
			switch p.Rank() {
			case 0:
				return boom
			case 1:
				return p.Recv(0, 0)
			}
			return nil
		}},
	} {
		if _, err := Run(starConfig(8, 2), tc.body); !errors.Is(err, boom) {
			t.Errorf("%s: err = %v, want boom", tc.name, err)
		}
	}
}

func TestPanicBecomesError(t *testing.T) {
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v", err)
	}
}

func TestSendRecvValidation(t *testing.T) {
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		if err := p.Send(5, 0, 10); err == nil {
			return errors.New("invalid dst accepted")
		}
		if err := p.Send(0, 0, -1); err == nil {
			return errors.New("negative bytes accepted")
		}
		if err := p.Recv(-1, 0); err == nil {
			return errors.New("invalid src accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		rep, err := Run(starConfig(8, 2), func(p *Proc) error {
			for it := 0; it < 3; it++ {
				p.Compute(0.01*float64(p.Rank()%3), "work")
				counts := make([]int, p.Size())
				for i := range counts {
					counts[i] = 10000
				}
				if err := p.Alltoallv(counts, AlltoallvLinear); err != nil {
					return err
				}
			}
			return p.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Seconds
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs disagreed: %v vs %v", a, b)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	rep, err := Run(starConfig(4, 2), func(p *Proc) error {
		p.Compute(float64(p.Rank())*0.1, "skew")
		if err := p.Barrier(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks finish at/after the slowest pre-barrier rank (0.3s).
	for r, s := range rep.RankSeconds {
		if s < 0.3 {
			t.Errorf("rank %d finished at %v, before barrier release", r, s)
		}
	}
}

func TestBcastReachesEveryone(t *testing.T) {
	for _, ranks := range []int{2, 3, 5, 8} {
		rep, err := Run(starConfig(ranks, 1), func(p *Proc) error {
			return p.Bcast(0, 50000)
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for r := 1; r < ranks; r++ {
			if rep.RankSeconds[r] <= 0 {
				t.Errorf("ranks=%d: rank %d never received", ranks, r)
			}
		}
	}
}

func TestBcastPipelinedBeatsBinomialForBigMessages(t *testing.T) {
	const ranks = 16
	const bytes = 8 << 20
	binom, err := Run(starConfig(ranks, 1), func(p *Proc) error {
		return p.Bcast(0, bytes)
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Run(starConfig(ranks, 1), func(p *Proc) error {
		return p.BcastPipelined(0, bytes, 32)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Seconds >= binom.Seconds {
		t.Errorf("pipelined bcast %.4fs not faster than binomial %.4fs",
			pipe.Seconds, binom.Seconds)
	}
}

func TestAllreduceAndReduceComplete(t *testing.T) {
	for _, ranks := range []int{2, 3, 6, 7} {
		_, err := Run(starConfig(ranks, 1), func(p *Proc) error {
			if err := p.Reduce(0, 1000); err != nil {
				return err
			}
			return p.Allreduce(1000)
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAlltoallvBothAlgorithms(t *testing.T) {
	for _, algo := range []AlltoallvAlgorithm{AlltoallvLinear, AlltoallvPairwise} {
		_, err := Run(starConfig(6, 2), func(p *Proc) error {
			counts := make([]int, p.Size())
			for i := range counts {
				counts[i] = 5000
			}
			return p.Alltoallv(counts, algo)
		})
		if err != nil {
			t.Fatalf("algo=%d: %v", algo, err)
		}
	}
}

func TestAlltoallvCountsValidation(t *testing.T) {
	_, err := Run(starConfig(2, 1), func(p *Proc) error {
		return p.Alltoallv([]int{1, 2, 3}, AlltoallvLinear)
	})
	if err == nil {
		t.Error("wrong counts length accepted")
	}
}

// The Figure 4 mechanism end-to-end: a linear alltoallv of eager-sized
// messages at scale drops packets; the pairwise schedule on the same
// workload drops none.
func TestLinearAlltoallvCongestsPairwiseDoesNot(t *testing.T) {
	const ranks, per = 36, 2
	counts := func(p *Proc) []int {
		c := make([]int, p.Size())
		for i := range c {
			c[i] = 48 << 10 // eager-sized
		}
		return c
	}
	linear, err := Run(starConfig(ranks, per), func(p *Proc) error {
		return p.Alltoallv(counts(p), AlltoallvLinear)
	})
	if err != nil {
		t.Fatal(err)
	}
	if linear.Drops == 0 {
		t.Error("linear alltoallv at 36 ranks should overflow switch buffers")
	}
	pair, err := Run(starConfig(ranks, per), func(p *Proc) error {
		return p.Alltoallv(counts(p), AlltoallvPairwise)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Drops != 0 {
		t.Errorf("pairwise alltoallv dropped %d times", pair.Drops)
	}
}

// Rendezvous protection: messages above the eager threshold never drop
// even under the linear schedule.
func TestRendezvousImmuneToIncast(t *testing.T) {
	rep, err := Run(starConfig(16, 2), func(p *Proc) error {
		c := make([]int, p.Size())
		for i := range c {
			c[i] = 256 << 10 // rendezvous-sized
		}
		return p.Alltoallv(c, AlltoallvLinear)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drops != 0 {
		t.Errorf("rendezvous messages dropped %d times", rep.Drops)
	}
}

func TestAllgatherGatherComplete(t *testing.T) {
	_, err := Run(starConfig(5, 1), func(p *Proc) error {
		if err := p.Allgather(2000); err != nil {
			return err
		}
		return p.Gather(2, 2000)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := starConfig(4, 2)
	cfg.CollectTrace = true
	rep, err := Run(cfg, func(p *Proc) error {
		p.Compute(0.01, "step")
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 1000
		}
		if err := p.Alltoallv(counts, AlltoallvLinear); err != nil {
			return err
		}
		return p.Alltoallv(counts, AlltoallvLinear)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("no trace collected")
	}
	insts := rep.Trace.Collectives("alltoallv")
	if len(insts) != 2 {
		t.Fatalf("alltoallv instances = %d, want 2", len(insts))
	}
	for _, in := range insts {
		if in.Ranks != 4 {
			t.Errorf("instance %s has %d ranks", in.Name, in.Ranks)
		}
	}
	if len(rep.Trace.Comms) == 0 {
		t.Error("no comms recorded")
	}
	found := false
	for _, iv := range rep.Trace.Intervals {
		if iv.Kind == trace.StateCompute && iv.Name == "step" {
			found = true
		}
	}
	if !found {
		t.Error("compute interval missing")
	}
}

func TestSingleRankCollectives(t *testing.T) {
	_, err := Run(starConfig(1, 1), func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		if err := p.Bcast(0, 100); err != nil {
			return err
		}
		if err := p.BcastPipelined(0, 100, 4); err != nil {
			return err
		}
		if err := p.Allreduce(100); err != nil {
			return err
		}
		return p.Alltoallv([]int{100}, AlltoallvLinear)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	intra, err := Run(starConfig(2, 2), func(p *Proc) error { // same node
		if p.Rank() == 0 {
			return p.Send(1, 1, 60000)
		}
		return p.Recv(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := Run(starConfig(2, 1), func(p *Proc) error { // two nodes
		if p.Rank() == 0 {
			return p.Send(1, 1, 60000)
		}
		return p.Recv(0, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if intra.Seconds >= inter.Seconds {
		t.Errorf("intra-node %.6fs not faster than inter-node %.6fs",
			intra.Seconds, inter.Seconds)
	}
}
