package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // reversed: summarize must sort a copy
	}
	d := summarize(xs)
	if d.N != 100 || d.Min != 1 || d.Max != 100 || d.Median != 50.5 || d.Q1 != 25.75 || d.Q3 != 75.25 {
		t.Errorf("summarize = %+v", d)
	}
	if d.TailPct != 90 || math.Abs(d.Tail-90.1) > 1e-9 {
		t.Errorf("tail = p%g %g, want p90 90.1", d.TailPct, d.Tail)
	}
	if xs[0] != 100 {
		t.Error("summarize modified its input")
	}
	if (summarize(nil) != dist{}) {
		t.Error("summarize(nil) is not the zero dist")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		// Two overlapping children cover [1, 6]; a third covers [8, 12],
		// clipped to the parent at 10.
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "a", Start: 2, End: 6},
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 12},
		{ID: 5, Parent: 3, Name: "c", Start: 3, End: 5},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 10 - 5 - 2, 2: 3, 3: 4 - 2, 4: 4, 5: 2}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %g, want %g", id, self[id], w)
		}
	}
	tot := spanTotals(spans)
	if a := tot["a"]; a.Count != 2 || a.TotalS != 7 || a.SelfS != 5 {
		t.Errorf("totals of a = %+v", a)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 0); id != 0 || tr.end(id) != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 0)
	child := tr.begin("child", root, 7)
	if tr.end(child) < 0 || tr.end(root) < 0 {
		t.Error("negative span duration")
	}
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Req != 7 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

func TestCheckReply(t *testing.T) {
	hit := http.Header{"X-Montblanc-Cache": {tierHit}}
	body := []byte(`[{"id":"fig3c","output":"x"}]`)
	for _, c := range []struct {
		name   string
		status int
		header http.Header
		body   []byte
		want   []byte
		tier   string
		class  failure
	}{
		{"hit", 200, hit, body, body, tierHit, ok},
		{"cold without reference", 200, http.Header{"X-Montblanc-Cache": {tierMiss}}, body, nil, tierMiss, ok},
		{"non-200", 503, hit, body, body, tierHit, failStatus},
		{"experiment error", 200, hit, []byte(`[{"id":"fig3c","error":"boom"}]`), nil, tierHit, failError},
		{"not a result list", 200, hit, []byte(`{}`), nil, tierHit, failBytes},
		{"wrong tier", 200, hit, body, body, tierMiss, failTier},
		{"byte mismatch", 200, hit, body, []byte(`[{"id":"fig3c","output":"y"}]`), tierHit, failBytes},
	} {
		if got := checkReply(c.status, c.header, c.body, c.want, c.tier); got != c.class {
			t.Errorf("%s: class %q, want %q", c.name, got, c.class)
		}
	}
	if replyFailure(200, hit, body, errors.New("reset"), body, tierHit) != failStatus {
		t.Error("a transport error is not a failed status")
	}
}

func TestCheckOutputAndCount(t *testing.T) {
	if checkOutput(nil, []byte("a"), []byte("a")) != ok ||
		checkOutput(errors.New("x"), []byte("a"), []byte("a")) != failError ||
		checkOutput(nil, []byte("a"), []byte("b")) != failBytes {
		t.Error("checkOutput misclassifies")
	}
	if checkCount(3, 3) != ok || checkCount(3, 4) != failCounter {
		t.Error("checkCount misclassifies")
	}
	r := newRun("w", 1, 1, false, t.TempDir())
	r.check(ok)
	r.check(failTier)
	r.check(failTier)
	if r.attempted != 3 || r.failed() != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", r.attempted, r.failed())
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 11, 10.5, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*0.8, b*1.2
	}
	for _, c := range []struct {
		name         string
		cand         []float64
		higherBetter bool
		want         verdict
	}{
		{"lower time", faster, false, better},
		{"higher time", slower, false, worse},
		{"higher rate", slower, true, better},
		{"same runs", base, false, unresolved},
		{"no runs", nil, false, unresolved},
	} {
		if got := judge(base, c.cand, c.higherBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// Winning every pair is not enough when the medians differ by less
	// than the base's own spread.
	tiny := make([]float64, len(base))
	for i, b := range base {
		tiny[i] = b - 0.01
	}
	if got := judge(base, tiny, false); got != unresolved {
		t.Errorf("gain inside the spread: %s, want unresolved", got)
	}
	// Ties count for neither side: eight wins and two ties of ten pairs
	// fall short of nine tenths.
	tied := append([]float64(nil), faster...)
	tied[0], tied[1] = base[0], base[1]
	if got := judge(base, tied, false); got != unresolved {
		t.Errorf("8 wins 2 ties: %s, want unresolved", got)
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json at the repository
// root in step with the metric and workload tables here.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, "|") != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %v, program %s", names, workloadNames())
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, program %d/%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range doc.PerLayer {
		if (metricSpec{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, perLayer[i])
		}
	}
}

func TestSummaryLineHasExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newRun("w", 1, 1, traced, t.TempDir())
		r.setups = []float64{1, 2, 3}
		r.ref = hostRef{secs: 0.008, chunks: 2} // a finite host_ref_ms
		r.set("work_ms", 4)
		r.set("ops_per_s", 6)
		r.check(ok)
		r.finish()
		b, err := json.Marshal(r.summaryLine())
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		var got, want []string
		for n := range line.Metrics {
			got = append(got, n)
		}
		for _, s := range specs {
			want = append(want, s.Name)
			if line.Metrics[s.Name].Unit != s.Unit {
				t.Errorf("%s: unit %q, want %q", s.Name, line.Metrics[s.Name].Unit, s.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") || !line.Correct || line.Attempted != 1 {
			t.Errorf("traced=%v: line %s", traced, b)
		}
		if !traced && line.Metrics["setup_s"].Value != 2 {
			t.Errorf("setup_s = %g, want the median 2", line.Metrics["setup_s"].Value)
		}
	}
}

func TestHostRef(t *testing.T) {
	// Two chunks of 6 ms: a host 1.5x slower than nominal.
	if got := normalize(3, 0.012, 2); math.Abs(got-3*refNominalMs/6) > 1e-12 {
		t.Errorf("normalize = %g, want %g", got, 3*refNominalMs/6)
	}
	h := hostRef{secs: 0.012, chunks: 2}
	if got := h.chunkMs(); math.Abs(got-6) > 1e-12 {
		t.Errorf("chunkMs = %g, want 6", got)
	}
	if secs := h.sample(1); secs <= 0 || h.chunks != 3 || math.Abs(h.secs-0.012-secs) > 1e-12 {
		t.Errorf("sample returned %g, hostRef %+v", secs, h)
	}
}

func TestGitCommit(t *testing.T) {
	root := t.TempDir()
	if got := gitCommit(root); got != "unknown" {
		t.Errorf("outside a checkout: %q", got)
	}
	git := filepath.Join(root, ".git")
	write := func(name, content string) {
		p := filepath.Join(git, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled\nabc123 refs/heads/main\n")
	if got := gitCommit(root); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	write("refs/heads/main", "def456\n")
	if got := gitCommit(root); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
	write("HEAD", "0123abcd\n")
	if got := gitCommit(root); got != "0123abcd" {
		t.Errorf("detached HEAD: %q", got)
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	writeRuns := func(side string, scale float64) string {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 10; seed++ {
			rf := resultFile{Workload: "quick-suite", Seed: seed, Metrics: map[string]metric{
				"work_ms": {Unit: "ms", Better: "lower", Value: scale * (1000 + float64(seed))},
			}}
			b, err := json.Marshal(rf)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, side+string(rune('a'+seed))+".json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Span files beside the results are skipped.
		if err := os.WriteFile(filepath.Join(d, "x.spans.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		return d
	}
	base, cand := writeRuns("base", 1), writeRuns("new", 0.5)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, cand}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	row := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(row) != 2 || !strings.Contains(row[1], "quick-suite") || !strings.Contains(row[1], "0.500 (base 1006)") ||
		!strings.HasSuffix(row[1], string(better)) {
		t.Errorf("compare output:\n%s", out.String())
	}
	if code := compareMain([]string{base}, &out, &errOut); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}

	// Runs from other hardware are flagged, never compared silently.
	other, err := json.Marshal(resultFile{Workload: "quick-suite", Seed: 11, Parameters: map[string]any{"cpu": "other"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cand, "other.json"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	compareMain([]string{base, cand}, &out, &errOut)
	if !strings.HasPrefix(out.String(), "warning:") {
		t.Errorf("no hardware warning:\n%s", out.String())
	}
}
