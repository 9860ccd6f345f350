package simmpi

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

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
// linear-scan reference, returning both commit logs and reports.
func runBoth(t *testing.T, cfg Config, body func(*Proc) error) (heapLog, scanLog []commitRecord, heapRep, scanRep *Report) {
	t.Helper()
	exec := func(linear bool) ([]commitRecord, *Report) {
		cfg.Net.Reset() // both pickers start from pristine link state
		var log []commitRecord
		h := hooks{onCommit: func(kind opKind, rank int, ready float64) {
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

func assertEquivalent(t *testing.T, cfg Config, body func(*Proc) error) {
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
		if !reflect.DeepEqual(heapRep.Trace.Intervals, scanRep.Trace.Intervals) {
			t.Fatal("trace intervals differ between pickers")
		}
		if !reflect.DeepEqual(heapRep.Trace.Comms, scanRep.Trace.Comms) {
			t.Fatal("trace comms differ between pickers")
		}
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
// eager/rendezvous threshold — the heap and scan pickers commit the
// same sequence and produce identical reports and traces.
func TestHeapScanEquivalenceProperty(t *testing.T) {
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
		assertEquivalent(t, cfg, func(p *Proc) error {
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
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
