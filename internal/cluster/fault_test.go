package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"montblanc/internal/fault"
	"montblanc/internal/simmpi"
)

// ringJob is a minimal coupled job: compute then circulate a token.
func ringJob(p *simmpi.Proc) error {
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() + p.Size() - 1) % p.Size()
	for it := 0; it < 4; it++ {
		p.Compute(1.0, "work")
		if err := p.Send(right, it, 64<<10); err != nil {
			return err
		}
		if err := p.Recv(left, it); err != nil {
			return err
		}
	}
	return nil
}

func TestRunAppliesFaultSchedule(t *testing.T) {
	c, err := Tibidabo(4)
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Ranks: 8, CoreFlopsPerSec: 1e9, CollectTrace: true}
	clean, err := c.Run(job, ringJob)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults.Interrupts != 0 {
		t.Fatalf("failure-free run saw %d interrupts", clean.Faults.Interrupts)
	}

	spec := &fault.Spec{
		DowntimeSeconds: 3,
		Events:          []fault.Event{{Node: 1, Time: 1.5}},
		Links: []fault.LinkFault{
			{Link: "node0->sw", Start: 0, End: 100, BandwidthFactor: 10},
		},
	}
	r, err := spec.Resolve(c.Nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	job.Faults = r
	faulty, err := c.Run(job, ringJob)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 hosts ranks 2 and 3 (two cores per node): both freeze.
	if faulty.Faults.Interrupts != 2 {
		t.Fatalf("interrupts = %d, want 2 (both ranks on node 1)", faulty.Faults.Interrupts)
	}
	if faulty.Faults.DownSeconds <= 0 {
		t.Fatal("no frozen time recorded")
	}
	if faulty.Seconds <= clean.Seconds {
		t.Fatalf("faulty run %v not slower than clean %v", faulty.Seconds, clean.Seconds)
	}
	if got := c.Net.DegradedTransfers(); got == 0 {
		t.Fatal("link fault never hit a transfer")
	}

	// A later failure-free run on the same cluster must match the first
	// clean run: Reset clears the degradations along with everything
	// else.
	job.Faults = nil
	again, err := c.Run(job, ringJob)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seconds != clean.Seconds {
		t.Fatalf("post-fault clean run %v != original %v (fault state leaked)",
			again.Seconds, clean.Seconds)
	}
}

func TestRunRejectsUnknownFaultLink(t *testing.T) {
	c, err := Tibidabo(2)
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{Links: []fault.LinkFault{{Link: "bogus", Start: 0, End: 1}}}
	r, err := spec.Resolve(c.Nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Ranks: 2, CoreFlopsPerSec: 1e9, Faults: r}
	if _, err := c.Run(job, ringJob); err == nil {
		t.Fatal("unknown link name accepted")
	}
}

func TestRunRejectsMismatchedSchedule(t *testing.T) {
	c, err := Tibidabo(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := (&fault.Spec{}).Resolve(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Ranks: 4, RanksPerNode: 1, CoreFlopsPerSec: 1e9, Faults: r}
	if _, err := c.Run(job, ringJob); err == nil || !strings.Contains(err.Error(), "resolved for 8 nodes") {
		t.Fatalf("want node-count mismatch error, got %v", err)
	}
}

// sameReport compares two reports in every field but Sched.Wall, which
// is host time.
func sameReport(a, b *simmpi.Report) bool {
	x, y := *a, *b
	x.Sched.Wall, y.Sched.Wall = 0, 0
	return reflect.DeepEqual(x, y)
}

// Idle extra nodes never change a job's result: the same one-rank-per-
// node ring on 4 of 4 and 4 of 8 Star nodes gives the same report, both
// failure-free and under one spec resolved for each size. The second
// half rests on node n's crash stream not depending on the node count.
func TestIdleNodesChangeNothing(t *testing.T) {
	spec := &fault.Spec{
		Seed: 3, MTBFSeconds: 3, HorizonSeconds: 20, DowntimeSeconds: 0.5,
		Events: []fault.Event{{Node: 1, Time: 1.5}},
		Links:  []fault.LinkFault{{Link: "node0->sw", Start: 0, End: 100, BandwidthFactor: 10}},
	}
	var reports [2][2]*simmpi.Report // [clean, faulty][4 nodes, 8 nodes]
	for i, nodes := range []int{4, 8} {
		c, err := Tibidabo(nodes) // a single Star switch up to 32 nodes
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Resolve(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j, faults := range []*fault.Resolved{nil, r} {
			job := JobConfig{Ranks: 4, RanksPerNode: 1, CoreFlopsPerSec: 1e9, CollectTrace: true, Faults: faults}
			if reports[j][i], err = c.Run(job, ringJob); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := reports[1][0].Faults.Interrupts; n < 2 {
		t.Fatalf("faulty run saw %d interrupts; the schedule must bite for the test to mean anything", n)
	}
	for j, name := range []string{"failure-free", "faulty"} {
		if !sameReport(reports[j][0], reports[j][1]) {
			t.Errorf("%s: 8-node report differs from 4-node report", name)
		}
	}
}

// FuzzFaultSchedule drives fault specs through the one path that applies
// them: ParseSpec, Resolve for 2-8 nodes, and a one-rank-per-node ring
// through Cluster.Run. Nothing may panic; a run that succeeds reports
// finite, non-negative times and the same report a second time.
func FuzzFaultSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		spec, err := fault.ParseSpec(data)
		if err != nil {
			return
		}
		nodes := 2 + int(size%7)
		r, err := spec.Resolve(nodes, 50)
		if err != nil {
			return
		}
		// A resource bound, not a validity rule: Resolve allows far more
		// outages than one fuzz iteration can afford to simulate.
		if len(r.Outages) > 4096 {
			t.Skip("more than 4096 outages")
		}
		c, err := Tibidabo(nodes)
		if err != nil {
			t.Fatal(err)
		}
		job := JobConfig{Ranks: nodes, RanksPerNode: 1, CoreFlopsPerSec: 1e9, Faults: r}
		rep, err := c.Run(job, ringJob)
		if err != nil {
			return
		}
		finite := func(what string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v, want finite and >= 0", what, v)
			}
		}
		finite("Seconds", rep.Seconds)
		for i, s := range rep.RankSeconds {
			finite(fmt.Sprintf("RankSeconds[%d]", i), s)
		}
		finite("Faults.DownSeconds", rep.Faults.DownSeconds)
		again, err := c.Run(job, ringJob)
		if err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		if !sameReport(rep, again) {
			t.Fatal("second run gave a different report")
		}
	})
}
