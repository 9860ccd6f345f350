package trace

import (
	"slices"
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	if StateCompute.String() != "compute" || StateCollective.String() != "collective" {
		t.Error("kind names wrong")
	}
}

func TestDuration(t *testing.T) {
	tr := New(2)
	if tr.Duration() != 0 {
		t.Error("empty trace duration != 0")
	}
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Start: 0, End: 2})
	tr.AddInterval(Interval{Rank: 1, Kind: StateCompute, Start: 1, End: 3})
	tr.AddComm(Comm{Src: 0, Dst: 1, Sent: 2, Arrived: 4.5})
	if d := tr.Duration(); d != 4.5 {
		t.Errorf("duration = %v, want 4.5", d)
	}
}

func TestMergeAndSort(t *testing.T) {
	a := New(2)
	a.AddInterval(Interval{Rank: 1, Start: 5, End: 6})
	b := New(2)
	b.AddInterval(Interval{Rank: 0, Start: 1, End: 2})
	b.AddComm(Comm{Sent: 3, Arrived: 4})
	a.Merge(b)
	a.Sort()
	if len(a.Intervals) != 2 || a.Intervals[0].Start != 1 {
		t.Errorf("merge/sort wrong: %+v", a.Intervals)
	}
	if len(a.Comms) != 1 {
		t.Error("comms not merged")
	}
}

func buildCollectiveTrace() *Trace {
	tr := New(4)
	// Three alltoallv instances; instance #1 is delayed on all ranks,
	// instance #2 on one rank only.
	for inst := 0; inst < 3; inst++ {
		base := float64(inst) * 10
		for rank := 0; rank < 4; rank++ {
			d := 1.0
			if inst == 1 {
				d = 6.0 // all ranks delayed
			}
			if inst == 2 && rank == 3 {
				d = 8.0 // one rank delayed
			}
			tr.AddInterval(Interval{
				Rank: rank, Kind: StateCollective,
				Name:  "alltoallv#" + string(rune('0'+inst)),
				Start: base, End: base + d,
			})
		}
	}
	// Unrelated collectives and computes must not pollute the analysis.
	tr.AddInterval(Interval{Rank: 0, Kind: StateCollective, Name: "barrier#0", Start: 40, End: 49})
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Name: "work", Start: 50, End: 59})
	return tr
}

func TestCollectivesGrouping(t *testing.T) {
	tr := buildCollectiveTrace()
	insts := tr.Collectives("alltoallv")
	if len(insts) != 3 {
		t.Fatalf("instances = %d, want 3", len(insts))
	}
	for i, in := range insts {
		if in.Ranks != 4 {
			t.Errorf("instance %d ranks = %d", i, in.Ranks)
		}
	}
	if m := slices.Max(insts[1].Durations); m != 6 {
		t.Errorf("instance 1 max duration = %v", m)
	}
	// Ordered by start.
	if insts[0].Start > insts[1].Start || insts[1].Start > insts[2].Start {
		t.Error("instances not ordered by start")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	rep := AnalyzeCongestion(New(2), "alltoallv")
	if rep != (CongestionReport{Collective: "alltoallv"}) {
		t.Errorf("empty analysis = %+v", rep)
	}
}

func TestDroppedComms(t *testing.T) {
	tr := New(2)
	tr.AddComm(Comm{Dropped: true})
	tr.AddComm(Comm{})
	tr.AddComm(Comm{Dropped: true})
	if d := tr.DroppedComms(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New(2)
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Start: 0, End: 5})
	tr.AddInterval(Interval{Rank: 0, Kind: StateCollective, Name: "alltoallv#0", Start: 5, End: 10})
	tr.AddInterval(Interval{Rank: 1, Kind: StateRecv, Start: 0, End: 10})
	out := tr.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("gantt lines = %d, want 3 (header + 2 ranks):\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "=") || !strings.Contains(lines[1], "A") {
		t.Errorf("rank 0 row missing states: %q", lines[1])
	}
	if !strings.Contains(lines[2], "<") {
		t.Errorf("rank 1 row missing recv: %q", lines[2])
	}
	if strings.Contains(lines[2], "=") {
		t.Errorf("rank 1 row has spurious compute: %q", lines[2])
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := New(2).Gantt(40); out != "" {
		t.Errorf("empty trace rendered %q", out)
	}
}

func TestGanttDefaultWidth(t *testing.T) {
	tr := New(1)
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Start: 0, End: 1})
	out := tr.Gantt(0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines[1]) < 80 {
		t.Errorf("default width row too short: %d", len(lines[1]))
	}
}

func TestGanttIgnoresOutOfRangeRanks(t *testing.T) {
	tr := New(1)
	tr.AddInterval(Interval{Rank: 5, Kind: StateCompute, Start: 0, End: 1})
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Start: 0, End: 1})
	out := tr.Gantt(10)
	if !strings.Contains(out, "rank   0") {
		t.Errorf("gantt = %q", out)
	}
}

func TestReserveGrowsWithoutChangingContents(t *testing.T) {
	tr := New(2)
	tr.AddInterval(Interval{Rank: 0, Kind: StateCompute, Start: 0, End: 1})
	tr.AddComm(Comm{Src: 0, Dst: 1, Bytes: 10, Sent: 0, Arrived: 1})
	tr.Reserve(100, 200)
	if cap(tr.Intervals) < 100 || cap(tr.Comms) < 200 {
		t.Errorf("Reserve did not grow: caps %d/%d", cap(tr.Intervals), cap(tr.Comms))
	}
	if len(tr.Intervals) != 1 || len(tr.Comms) != 1 {
		t.Fatalf("Reserve changed lengths: %d/%d", len(tr.Intervals), len(tr.Comms))
	}
	if tr.Intervals[0].End != 1 || tr.Comms[0].Bytes != 10 {
		t.Error("Reserve changed contents")
	}
	// Reserving less than current capacity must not shrink.
	before := cap(tr.Intervals)
	tr.Reserve(1, 1)
	if cap(tr.Intervals) != before {
		t.Error("Reserve shrank a buffer")
	}
}
