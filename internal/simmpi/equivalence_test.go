package simmpi

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"montblanc/internal/trace"
	"montblanc/internal/xrand"
)

// The determinism contract of the heap rewrite: the indexed min-heap is
// an index over the same (ready, rank) total order the seed scheduler's
// linear scan walked, so the two pickers must commit identical
// operation sequences — same kinds, same ranks, same ready times — and
// produce bit-identical reports and traces. These tests run every
// workload under both pickers (linearScanPick retains the seed scan)
// and compare.

// linearScanPick is the seed scheduler's picker: an O(Ranks) scan over
// the pending table. Lowest rank wins ties because later equal-ready
// ops do not displace the incumbent.
func linearScanPick(pending []*op) *op {
	var best *op
	for _, o := range pending {
		if o == nil || math.IsInf(o.ready, 1) {
			continue
		}
		if best == nil || o.ready < best.ready {
			best = o
		}
	}
	return best
}

type commitRecord struct {
	kind  opKind
	rank  int
	ready float64
}

// runBoth executes the same workload under the heap picker and the
// linear-scan reference, returning both commit logs and reports. Under
// both, committed ready times must never decrease: that is what keeps
// the trace's communication log, appended in commit order, sorted by
// send time without a sort.
func runBoth(t *testing.T, cfg Config, body func(*Proc) error) (heapLog, scanLog []commitRecord, heapRep, scanRep *Report) {
	t.Helper()
	exec := func(linear bool) ([]commitRecord, *Report) {
		cfg.Net.Reset() // both pickers start from pristine link state
		var log []commitRecord
		h := hooks{onCommit: func(kind opKind, rank int, ready float64) {
			if n := len(log); n > 0 && ready < log[n-1].ready {
				t.Errorf("linear=%v: commit %d (%s, rank %d) ready %v after %v", linear, n, kind, rank, ready, log[n-1].ready)
			}
			log = append(log, commitRecord{kind, rank, ready})
		}}
		if linear {
			h.pick = linearScanPick
		}
		rep, err := run(cfg, body, h)
		if err != nil {
			t.Fatalf("linear=%v: %v", linear, err)
		}
		return log, rep
	}
	heapLog, heapRep = exec(false)
	scanLog, scanRep = exec(true)
	return
}

// assertEquivalent runs the workload under both pickers, fails the test
// on any difference, and returns the heap picker's report.
func assertEquivalent(t *testing.T, cfg Config, body func(*Proc) error) *Report {
	t.Helper()
	heapLog, scanLog, heapRep, scanRep := runBoth(t, cfg, body)
	if len(heapLog) != len(scanLog) {
		t.Fatalf("commit counts differ: heap %d, scan %d", len(heapLog), len(scanLog))
	}
	for i := range heapLog {
		if heapLog[i] != scanLog[i] {
			t.Fatalf("commit %d differs: heap %+v, scan %+v", i, heapLog[i], scanLog[i])
		}
	}
	if heapRep.Seconds != scanRep.Seconds {
		t.Fatalf("makespans differ: heap %v, scan %v", heapRep.Seconds, scanRep.Seconds)
	}
	if !reflect.DeepEqual(heapRep.RankSeconds, scanRep.RankSeconds) {
		t.Fatalf("rank end times differ:\nheap %v\nscan %v", heapRep.RankSeconds, scanRep.RankSeconds)
	}
	if heapRep.Drops != scanRep.Drops {
		t.Fatalf("drop counts differ: heap %d, scan %d", heapRep.Drops, scanRep.Drops)
	}
	if cfg.CollectTrace {
		if !reflect.DeepEqual(heapRep.Trace.ByRank, scanRep.Trace.ByRank) {
			t.Fatal("trace intervals differ between pickers")
		}
		if !reflect.DeepEqual(heapRep.Trace.Comms, scanRep.Trace.Comms) {
			t.Fatal("trace comms differ between pickers")
		}
		assertTraceOrder(t, heapRep.Trace)
	}
	return heapRep
}

// assertTraceOrder checks the trace's order invariants (the trace
// package doc): every rank's list in start order, the comm log sorted
// by send time.
func assertTraceOrder(t *testing.T, tr *trace.Trace) {
	t.Helper()
	for r, ivs := range tr.ByRank {
		if !slices.IsSortedFunc(ivs, func(a, b trace.Interval) int { return cmp.Compare(a.Start, b.Start) }) {
			t.Fatalf("rank %d intervals not in start order: %+v", r, ivs)
		}
	}
	if !slices.IsSortedFunc(tr.Comms, func(a, b trace.Comm) int { return cmp.Compare(a.Sent, b.Sent) }) {
		t.Fatal("comm log not sorted by send time")
	}
}

// All ranks enter a barrier at t=0: every round is wall-to-wall ready
// ties, the case where the heap's (ready, rank) tie-break must mirror
// the scan's lowest-rank-wins rule exactly.
func TestHeapMatchesScanOnTies(t *testing.T) {
	cfg := starConfig(8, 2)
	cfg.CollectTrace = true
	assertEquivalent(t, cfg, func(p *Proc) error {
		for i := 0; i < 3; i++ {
			if err := p.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

// The Figure 4 incast: 36 ranks of linear alltoallv with eager-sized
// messages, drops included — retransmission penalties, parked recvs and
// long single-key mailbox queues all in play.
func TestHeapMatchesScanUnderCongestion(t *testing.T) {
	cfg := starConfig(36, 2)
	cfg.CollectTrace = true
	assertEquivalent(t, cfg, func(p *Proc) error {
		counts := make([]int, p.Size())
		for i := range counts {
			counts[i] = 48 << 10
		}
		return p.Alltoallv(counts, AlltoallvLinear)
	})
}

// Property: on randomized symmetric workloads — mixed collectives,
// skewed compute, ring point-to-point, random sizes crossing the
// eager/rendezvous threshold, with and without node outages — the heap
// and scan pickers commit the same sequence, in ready order, and
// produce identical reports and traces.
func TestHeapScanEquivalenceProperty(t *testing.T) {
	interrupted := 0 // runs an outage actually froze a rank in
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		ranks := 2 + rng.Intn(12)
		per := 1 + rng.Intn(2)
		nOps := 1 + rng.Intn(6)
		kinds := make([]int, nOps)
		sizes := make([]int, nOps)
		for i := range kinds {
			kinds[i] = rng.Intn(7)
			sizes[i] = 1 + rng.Intn(150000)
		}
		cfg := starConfig(ranks, per)
		cfg.CollectTrace = seed%2 == 0
		if seed%3 != 0 {
			// Outages of 0.1-2 ms inside the first 5 ms, where these
			// programs run.
			for i := rng.Intn(4); i >= 0; i-- {
				start := rng.Float64() * 5e-3
				cfg.Outages = append(cfg.Outages, Outage{Node: rng.Intn(cfg.Net.NumNodes),
					Start: start, End: start + 1e-4 + rng.Float64()*2e-3})
			}
		}
		rep := assertEquivalent(t, cfg, func(p *Proc) error {
			for i, kind := range kinds {
				var err error
				switch kind {
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
				case 5:
					// Skewed compute then a ring shift.
					p.Compute(float64(p.Rank()%4)*1e-4, "skew")
					next := (p.Rank() + 1) % p.Size()
					prev := (p.Rank() - 1 + p.Size()) % p.Size()
					if err = p.Send(next, 100+i, sizes[i]); err == nil {
						err = p.Recv(prev, 100+i)
					}
				default:
					// Eager self-traffic plus a barrier.
					if err = p.Send(p.Rank(), 200+i, sizes[i]); err == nil {
						if err = p.Recv(p.Rank(), 200+i); err == nil {
							err = p.Barrier()
						}
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if rep.Faults.Interrupts > 0 {
			interrupted++
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if interrupted == 0 {
		t.Fatal("no run was interrupted by an outage")
	}
	t.Logf("%d of 30 runs interrupted by outages", interrupted)
}
