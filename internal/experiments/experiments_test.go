package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"montblanc/internal/runner"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"energy-phases", "fig1", "fig2", "fig3a", "fig3b", "fig3c", "fig4",
		"fig5", "fig6", "fig7", "locality", "pagealloc",
		"perspectives", "resilience-daly", "resilience-sweep",
		"scale-membench", "scale-ranks", "sweep-energy",
		"sweep-matrix", "sweep-specs", "table1", "table2",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Find("fig4"); !ok {
		t.Error("Find(fig4) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// Every experiment runs to completion in quick mode and produces output.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Error("no output")
			}
		})
	}
}

func TestFig1Findings(t *testing.T) {
	res, err := Fig1Data()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExaflopYear < 2016.5 || res.ExaflopYear > 2020.5 {
		t.Errorf("exaflop year = %.1f, want ~2018", res.ExaflopYear)
	}
	if res.Budget.ImprovementGap < 20 || res.Budget.ImprovementGap > 30 {
		t.Errorf("efficiency gap = %.1f, want ~25", res.Budget.ImprovementGap)
	}
}

func TestFig3QuickShapes(t *testing.T) {
	o := Options{Quick: true}
	a, err := Fig3aData(o)
	if err != nil {
		t.Fatal(err)
	}
	if last := a[len(a)-1]; last.Efficiency < 0.5 {
		t.Errorf("quick LINPACK efficiency %.2f too low", last.Efficiency)
	}
	b, err := Fig3bData(o)
	if err != nil {
		t.Fatal(err)
	}
	if last := b[len(b)-1]; last.Efficiency < 0.85 {
		t.Errorf("quick SPECFEM efficiency %.2f, want ~0.9+", last.Efficiency)
	}
	c, err := Fig3cData(o)
	if err != nil {
		t.Fatal(err)
	}
	if last := c[len(c)-1]; last.Efficiency > 0.6 {
		t.Errorf("quick BigDFT efficiency %.2f did not collapse", last.Efficiency)
	}
	// The ordering claim of Figure 3: at its largest scale BigDFT is far
	// less efficient than SPECFEM3D at *its* largest (which is bigger).
	if c[len(c)-1].Efficiency >= b[len(b)-1].Efficiency {
		t.Error("BigDFT should scale worse than SPECFEM3D")
	}
}

func TestFig4Findings(t *testing.T) {
	_, cr, err := Fig4Data(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Instances == 0 || cr.Delayed == 0 {
		t.Errorf("no delayed collectives found: %+v", cr)
	}
	if cr.Delayed < cr.Instances/2 {
		t.Errorf("delayed = %d of %d, want most", cr.Delayed, cr.Instances)
	}
}

// The full Figure 5 run reproduces the paper's two-mode picture with the
// default seed.
func TestFig5Findings(t *testing.T) {
	res, err := Fig5Data(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Modes.Bimodal {
		t.Fatal("default Figure 5 run not bimodal")
	}
	if res.Modes.Ratio < 4 || res.Modes.Ratio > 6 {
		t.Errorf("mode ratio = %.2f, want ~5", res.Modes.Ratio)
	}
	if res.Streaks.Count != 1 {
		t.Errorf("degraded episodes = %d, want 1 (all consecutive)", res.Streaks.Count)
	}
	if res.Streaks.Longest != res.Streaks.Total {
		t.Error("degraded measurements not fully consecutive")
	}
	if len(res.Measurements) != 42*50 {
		t.Errorf("measurements = %d, want 2100", len(res.Measurements))
	}
}

func TestPageAllocFindings(t *testing.T) {
	res, err := PageAllocData(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomCV <= res.ContiguousCV {
		t.Errorf("random CV %.4f not above contiguous CV %.4f",
			res.RandomCV, res.ContiguousCV)
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig1", "table2", "fig7"} {
		if !strings.Contains(out, "==== "+id) {
			t.Errorf("RunAll output missing %s", id)
		}
	}
}

// brokenPipeWriter accepts `limit` bytes, then fails every write — the
// `montblanc all | head` scenario.
type brokenPipeWriter struct {
	limit   int
	written int
}

var errPipe = errors.New("broken pipe")

func (w *brokenPipeWriter) Write(p []byte) (int, error) {
	if w.written >= w.limit {
		return 0, errPipe
	}
	n := len(p)
	if w.written+n > w.limit {
		n = w.limit - w.written
	}
	w.written += n
	if n < len(p) {
		return n, errPipe
	}
	return n, nil
}

// A dead downstream writer must stop the suite instead of silently
// computing every remaining experiment — on both the sequential and the
// pooled path.
func TestWriterErrorStopsSuite(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := &brokenPipeWriter{limit: 64}
		results, err := Stream(w, All(), Options{Quick: true}, workers)
		if !errors.Is(err, errPipe) {
			t.Errorf("workers=%d: err = %v, want the pipe error", workers, err)
		}
		if len(results) >= len(All()) {
			t.Errorf("workers=%d: all %d experiments emitted despite a dead writer",
				workers, len(results))
		}
	}
}

// A panicking experiment fails alone with a *runner.PanicError naming
// it, on the one-worker path that writes straight to w as well as on
// the pooled one; the sections before it are emitted and the process
// carries on.
func TestPanickingExperimentStream(t *testing.T) {
	ok := Experiment{ID: "a-ok", Title: "fine", Run: func(w io.Writer, _ Options) error {
		fmt.Fprint(w, "fine")
		return nil
	}}
	boom := Experiment{ID: "boom", Title: "panics", Run: func(w io.Writer, _ Options) error {
		fmt.Fprint(w, "partial")
		panic("kaboom")
	}}
	for _, workers := range []int{1, 2} {
		var buf bytes.Buffer
		results, err := Stream(&buf, []Experiment{ok, boom}, Options{}, workers)
		var pe *runner.PanicError
		if !errors.As(err, &pe) || pe.ID != "boom" || pe.Value != "kaboom" {
			t.Fatalf("workers=%d: err = %v, want a PanicError for boom", workers, err)
		}
		if len(results) != 2 || results[0].Err != nil || !errors.As(results[1].Err, &pe) {
			t.Errorf("workers=%d: results %+v, want a-ok then the panic", workers, results)
		}
		want := "==== a-ok: fine ====\nfine\n==== boom: panics ====\npartial"
		if got := buf.String(); got != want {
			t.Errorf("workers=%d: output %q, want %q", workers, got, want)
		}
	}
}

// The sweep family honors Options.Platforms, errors on unknown names,
// and its inner parallel dispatch is worker-count independent.
func TestSweepPlatformSelection(t *testing.T) {
	sweep, _ := Find("sweep-matrix")
	var restricted bytes.Buffer
	err := sweep.Run(&restricted, Options{Platforms: []string{"Snowball", "XeonX5550"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(restricted.String(), "across 2 platforms") {
		t.Error("sweep ignored Options.Platforms")
	}
	if strings.Contains(restricted.String(), "Tegra2") {
		t.Error("excluded platform leaked into the sweep")
	}
	if err := sweep.Run(&bytes.Buffer{}, Options{Platforms: []string{"VAX"}}); err == nil {
		t.Error("unknown platform accepted")
	}
	for _, id := range []string{"sweep-matrix", "sweep-energy", "sweep-specs"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		var full bytes.Buffer
		if err := e.Run(&full, Options{}); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Snowball", "XeonX5550", "MontBlancNode", "ThunderX2"} {
			if !strings.Contains(full.String(), name) {
				t.Errorf("%s output missing %s", id, name)
			}
		}
	}
}
