package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// The Figure 3/4 quick outputs are pinned byte-for-byte to the seed
// linear-scan scheduler's output: the event-heap rewrite must not move
// a single digit of the paper's scalability results. The Figure 5/6
// quick outputs are pinned the same way against the pre-batching
// element-at-a-time cache simulator: the batched engine must not move
// a digit of the §V.A results either. Golden files are intentionally
// NOT regenerated by default — run with -update only for a change that
// is supposed to alter results.
func TestFigureQuickOutputGolden(t *testing.T) {
	for _, id := range []string{"fig3a", "fig3b", "fig3c", "fig4", "fig5", "fig6"} {
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", id+"_quick.golden"), buf.Bytes())
		})
	}
}

// The full quick suite — every registered experiment, headed sections
// in ID order — is pinned the same way, so any scheduler or experiment
// change that silently shifts bytes anywhere in `montblanc -quick all`
// fails loudly here. Workers > 1 exercises the buffered streaming path;
// the determinism suite separately asserts worker-count independence.
func TestQuickSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	if raceEnabled {
		t.Skip("full quick suite under -race: byte determinism is covered by the determinism suite there")
	}
	var buf bytes.Buffer
	if err := RunAllParallel(&buf, Options{Quick: true}, 4); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "quick_all.golden"), buf.Bytes())
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Locate the first divergence for a readable failure.
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	lo := at - 80
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := at+80, at+80
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Errorf("output differs from %s at byte %d (got %d bytes, want %d)\ngot  ...%q...\nwant ...%q...",
		path, at, len(got), len(want), got[lo:hiG], want[lo:hiW])
}
