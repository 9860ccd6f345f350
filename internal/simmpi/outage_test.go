package simmpi

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"montblanc/internal/network"
	"montblanc/internal/trace"
)

// --- hostile outage configs -----------------------------------------

func TestOutageValidation(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name    string
		outage  Outage
		wantErr string
	}{
		{"nan start", Outage{Node: 0, Start: nan, End: 1}, "non-finite"},
		{"nan end", Outage{Node: 0, Start: 0, End: nan}, "non-finite"},
		{"infinite end", Outage{Node: 0, Start: 0, End: inf}, "non-finite"},
		{"negative start", Outage{Node: 0, Start: -1, End: 1}, "negative start"},
		{"empty window", Outage{Node: 0, Start: 2, End: 2}, "empty window"},
		{"inverted window", Outage{Node: 0, Start: 3, End: 1}, "empty window"},
		{"negative node", Outage{Node: -1, Start: 0, End: 1}, "outside"},
		{"node beyond cluster", Outage{Node: 4, Start: 0, End: 1}, "outside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := starConfig(4, 1)
			cfg.Outages = []Outage{tc.outage}
			_, err := Run(cfg, func(p *Proc) error { return nil })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// --- window merging --------------------------------------------------

// buildNodeOutages must hand skipDown disjoint windows in start order,
// whatever the configured overlap: the freeze loop indexes forward and
// never revisits a window.
func TestOutageMerging(t *testing.T) {
	cfg := starConfig(4, 1)
	cfg.Outages = []Outage{
		{Node: 0, Start: 2, End: 5},
		{Node: 0, Start: 1, End: 3},  // overlaps the first (and is out of order)
		{Node: 0, Start: 5, End: 6},  // adjacent: merges too
		{Node: 0, Start: 8, End: 9},  // disjoint: survives
		{Node: 1, Start: 4, End: 10}, // other node: never merged across
	}
	per := buildNodeOutages(cfg)
	want0 := []Outage{{Node: 0, Start: 1, End: 6}, {Node: 0, Start: 8, End: 9}}
	if !reflect.DeepEqual(per[0], want0) {
		t.Errorf("node 0 windows = %v, want %v", per[0], want0)
	}
	if len(per[1]) != 1 || per[1][0].Start != 4 || per[1][0].End != 10 {
		t.Errorf("node 1 windows = %v, want the single [4, 10)", per[1])
	}
	if len(per[2]) != 0 || len(per[3]) != 0 {
		t.Errorf("untouched nodes grew windows: %v %v", per[2], per[3])
	}
}

// --- freeze semantics ------------------------------------------------

// A compute that overlaps an outage is suspended and resumes after the
// restart: the rank's clock warps across the window, the lost time is
// charged to the fault stats, and the trace records the two live
// pieces around the (unrecorded) down window.
func TestOutageFreezesCompute(t *testing.T) {
	cfg := starConfig(2, 1)
	cfg.CollectTrace = true
	cfg.Outages = []Outage{{Node: 1, Start: 0.5, End: 2}}
	rep, err := Run(cfg, func(p *Proc) error {
		p.Compute(1, "w")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is untouched; rank 1 computes 0.5s, freezes 1.5s, then
	// finishes the remaining 0.5s. All values are exact binary
	// fractions, so == comparisons are safe.
	if want := []float64{1, 2.5}; !reflect.DeepEqual(rep.RankSeconds, want) {
		t.Errorf("rank end times = %v, want %v", rep.RankSeconds, want)
	}
	if rep.Faults.DownSeconds != 1.5 || rep.Faults.Interrupts != 1 {
		t.Errorf("fault stats (%v down, %d interrupts), want (1.5, 1)", rep.Faults.DownSeconds, rep.Faults.Interrupts)
	}
	var got []trace.Interval
	for _, iv := range rep.Trace.ByRank[1] {
		if iv.Name == "w" {
			got = append(got, iv)
		}
	}
	if len(got) != 2 || got[0].Start != 0 || got[0].End != 0.5 || got[1].Start != 2 || got[1].End != 2.5 {
		t.Errorf("rank 1 compute intervals = %v, want [0,0.5) and [2,2.5)", got)
	}
	// The down window itself is unrecorded — that absence is what lets
	// trace.EnergyByState price it at idle watts.
	for _, iv := range rep.Trace.ByRank[1] {
		if iv.Start < 2 && iv.End > 0.5 {
			t.Errorf("interval %v overlaps the down window", iv)
		}
	}
}

// A node down at t=0 boots its ranks at the restart, counting one
// interrupt for the lost boot window.
func TestOutageDownAtBoot(t *testing.T) {
	cfg := starConfig(2, 1)
	cfg.Outages = []Outage{{Node: 0, Start: 0, End: 1}}
	rep, err := Run(cfg, func(p *Proc) error {
		p.Compute(0.5, "w")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1.5, 0.5}; !reflect.DeepEqual(rep.RankSeconds, want) {
		t.Errorf("rank end times = %v, want %v", rep.RankSeconds, want)
	}
	if rep.Faults.DownSeconds != 1 || rep.Faults.Interrupts != 1 {
		t.Errorf("fault stats (%v down, %d interrupts), want (1, 1)", rep.Faults.DownSeconds, rep.Faults.Interrupts)
	}
}

// An outage entirely after the last event never fires: failure-free
// accounting, and a Config with such windows stays byte-identical to
// one without (the guarantee goldens rely on).
func TestOutageAfterCompletion(t *testing.T) {
	clean := starConfig(4, 2)
	clean.CollectTrace = true
	ref, err := Run(clean, ringBody)
	if err != nil {
		t.Fatal(err)
	}
	faulty := starConfig(4, 2)
	faulty.CollectTrace = true
	faulty.Outages = []Outage{{Node: 0, Start: 1e6, End: 2e6}}
	faulty.Net.Reset()
	got, err := Run(faulty, ringBody)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.DownSeconds != 0 || got.Faults.Interrupts != 0 {
		t.Errorf("phantom outage fired: %v down, %d interrupts", got.Faults.DownSeconds, got.Faults.Interrupts)
	}
	if !reflect.DeepEqual(got.RankSeconds, ref.RankSeconds) ||
		!reflect.DeepEqual(got.Trace.ByRank, ref.Trace.ByRank) {
		t.Error("an unreached outage window moved the simulation")
	}
}

func ringBody(p *Proc) error {
	next, prev := (p.Rank()+1)%p.Size(), (p.Rank()-1+p.Size())%p.Size()
	for it := 0; it < 3; it++ {
		p.Compute(1e-4, "work")
		if err := p.Send(next, it, 4096); err != nil {
			return err
		}
		if err := p.Recv(prev, it); err != nil {
			return err
		}
	}
	return nil
}

// DegradeLink on a missing edge is a configuration error, not a no-op.
// The error names the missing link and one link the fabric does have,
// so a fault-file author sees the naming scheme.
func TestDegradeUnknownLink(t *testing.T) {
	for _, tc := range []struct {
		name, link, hint string
		net              *network.Network
	}{
		{"star", "node7->sw", `"node0->sw"`, network.Star(2)},
		{"tree", "node0->sw", `"node0->leaf"`, network.Tree(4, 2)},
		{"no links", "node0->sw", "no links", network.Star(0)},
	} {
		err := tc.net.DegradeLink(tc.link, network.Degradation{Start: 0, End: 1, BandwidthFactor: 2})
		if err == nil || !strings.Contains(err.Error(), `"`+tc.link+`"`) || !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("%s: err = %v, want %q named and %s", tc.name, err, tc.link, tc.hint)
		}
	}
}
