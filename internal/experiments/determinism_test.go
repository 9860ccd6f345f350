package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// Every registered experiment is a pure function of its Options: two
// runs with the same Options must yield byte-identical output.
func TestExperimentsDeterministic(t *testing.T) {
	for _, opts := range []Options{
		{Quick: true},
		{Quick: true, Seed: 7},
	} {
		opts := opts
		for _, e := range All() {
			e := e
			t.Run(fmt.Sprintf("%s/seed%d", e.ID, opts.Seed), func(t *testing.T) {
				t.Parallel()
				var first, second bytes.Buffer
				if err := e.Run(&first, opts); err != nil {
					t.Fatal(err)
				}
				if err := e.Run(&second, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Errorf("two runs differ (%d vs %d bytes)", first.Len(), second.Len())
				}
			})
		}
	}
}

// RunAllParallel must be byte-identical to its one-worker run at any
// worker count: each experiment renders into a private buffer and
// sections are emitted in ID order.
func TestRunAllParallelByteIdentical(t *testing.T) {
	opts := Options{Quick: true}
	var sequential bytes.Buffer
	if err := RunAllParallel(&sequential, opts, 1); err != nil {
		t.Fatal(err)
	}
	if sequential.Len() == 0 {
		t.Fatal("one-worker RunAllParallel produced no output")
	}
	for workers := 1; workers <= 8; workers++ {
		workers := workers
		t.Run(fmt.Sprintf("parallel%d", workers), func(t *testing.T) {
			t.Parallel()
			var got bytes.Buffer
			if err := RunAllParallel(&got, opts, workers); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), sequential.Bytes()) {
				t.Errorf("parallel=%d output differs from sequential (%d vs %d bytes)",
					workers, got.Len(), sequential.Len())
			}
		})
	}
}

// Structured results carry the same bytes the writer-based API emits.
func TestResultsMatchRunAll(t *testing.T) {
	opts := Options{Quick: true}
	results := Results(All(), opts, 4)
	var fromResults bytes.Buffer
	for _, r := range results {
		if err := emitSection(&fromResults, r); err != nil {
			t.Fatal(err)
		}
	}
	var fromRunAll bytes.Buffer
	if err := RunAllParallel(&fromRunAll, opts, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromResults.Bytes(), fromRunAll.Bytes()) {
		t.Error("sections rendered from Results(...) differ from RunAllParallel")
	}
	for i, e := range All() {
		if results[i].ID != e.ID || results[i].Title != e.Title {
			t.Errorf("result %d = %s/%s, want %s/%s",
				i, results[i].ID, results[i].Title, e.ID, e.Title)
		}
		if results[i].Err != nil {
			t.Errorf("%s failed: %v", e.ID, results[i].Err)
		}
		if results[i].Output == "" {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

// The direct-write single-worker path and the buffered pool path must
// render the same bytes.
func TestStreamSequentialMatchesPooled(t *testing.T) {
	opts := Options{Quick: true}
	es, err := Match("table*", "fig1", "fig2")
	if err != nil {
		t.Fatal(err)
	}
	var direct, pooled bytes.Buffer
	seqResults, err := Stream(&direct, es, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	poolResults, err := Stream(&pooled, es, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), pooled.Bytes()) {
		t.Error("single-worker direct writes differ from pooled buffered writes")
	}
	if len(seqResults) != len(es) || len(poolResults) != len(es) {
		t.Fatalf("results %d/%d, want %d", len(seqResults), len(poolResults), len(es))
	}
	for i := range seqResults {
		if seqResults[i].ID != poolResults[i].ID {
			t.Errorf("result %d: %s vs %s", i, seqResults[i].ID, poolResults[i].ID)
		}
	}
}

func TestMatch(t *testing.T) {
	ids := func(es []Experiment) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = e.ID
		}
		return out
	}

	got, err := Match("fig3*")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig3a", "fig3b", "fig3c"}; !equalStrings(ids(got), want) {
		t.Errorf("fig3* = %v, want %v", ids(got), want)
	}

	// Overlapping args dedup; output stays in ID order.
	got, err = Match("table2", "table*", "fig1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig1", "table1", "table2"}; !equalStrings(ids(got), want) {
		t.Errorf("overlap = %v, want %v", ids(got), want)
	}

	got, err = Match("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(All()) {
		t.Errorf("all matched %d, want %d", len(got), len(All()))
	}

	if _, err := Match("nope"); err == nil {
		t.Error("unknown ID did not error")
	}
	if _, err := Match("fig1", "zzz*"); err == nil {
		t.Error("pattern matching nothing did not error")
	}
	if _, err := Match("[bad"); err == nil {
		t.Error("malformed pattern did not error")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
