package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/platform"
	"montblanc/internal/runner"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestListOutput(t *testing.T) {
	code, out, _ := runCLI(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(experiments.All()) {
		t.Fatalf("%d lines, want %d", len(lines), len(experiments.All()))
	}
	for i, e := range experiments.All() {
		if !strings.HasPrefix(lines[i], e.ID) || !strings.Contains(lines[i], e.Title) {
			t.Errorf("line %d = %q, want %s + title", i, lines[i], e.ID)
		}
	}
}

func TestUnknownExperimentExitCode(t *testing.T) {
	code, out, errOut := runCLI(t, "doesnotexist")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("unexpected stdout %q", out)
	}
	if !strings.Contains(errOut, "doesnotexist") || !strings.Contains(errOut, "montblanc list") {
		t.Errorf("stderr %q lacks the unknown-experiment hint", errOut)
	}
}

func TestNoArgsUsageExitCode(t *testing.T) {
	code, _, errOut := runCLI(t)
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage: montblanc") {
		t.Errorf("stderr %q lacks usage", errOut)
	}
}

func TestSingleExperimentRawOutput(t *testing.T) {
	code, out, _ := runCLI(t, "-quick", "table1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "====") {
		t.Error("single-experiment output grew a section header")
	}
	if !strings.Contains(out, "Mont-Blanc selected HPC applications") {
		t.Errorf("output %q missing table title", out)
	}
}

func TestGlobSelectsHeadedSections(t *testing.T) {
	code, out, _ := runCLI(t, "-quick", "fig3*")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig3a", "fig3b", "fig3c"} {
		if !strings.Contains(out, "==== "+id+":") {
			t.Errorf("missing section for %s", id)
		}
	}
	if strings.Contains(out, "==== fig4") {
		t.Error("glob fig3* leaked fig4")
	}
}

func TestMultipleIDsRunOnce(t *testing.T) {
	code, out, _ := runCLI(t, "-quick", "table1", "table*")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if n := strings.Count(out, "==== table1:"); n != 1 {
		t.Errorf("table1 section appears %d times, want 1 (dedup)", n)
	}
	if !strings.Contains(out, "==== table2:") {
		t.Error("missing table2 section")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	code, out, _ := runCLI(t, "-quick", "-json", "table1", "fig2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var results []runner.Result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if results[0].ID != "fig2" || results[1].ID != "table1" {
		t.Errorf("IDs %s,%s — want ID order fig2,table1", results[0].ID, results[1].ID)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
		if r.Output == "" {
			t.Errorf("%s: empty output in JSON", r.ID)
		}
	}
	// The rendered text must survive the round-trip byte-for-byte.
	_, raw, _ := runCLI(t, "-quick", "table1")
	if results[1].Output != raw {
		t.Error("JSON output field differs from the raw rendering")
	}
	// And re-encoding parses to the same values.
	again, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	var results2 []runner.Result
	if err := json.Unmarshal(again, &results2); err != nil {
		t.Fatal(err)
	}
	if results2[1].Output != results[1].Output || results2[0].ID != results[0].ID {
		t.Error("second round-trip mangled results")
	}
}

func TestParallelFlagOutputIdentical(t *testing.T) {
	_, seq, _ := runCLI(t, "-quick", "-parallel", "1", "all")
	for _, n := range []string{"2", "5", "8"} {
		code, par, _ := runCLI(t, "-quick", "-parallel", n, "all")
		if code != 0 {
			t.Fatalf("-parallel %s exit %d", n, code)
		}
		if par != seq {
			t.Errorf("-parallel %s stdout differs from -parallel 1 (%d vs %d bytes)",
				n, len(par), len(seq))
		}
	}
}

func TestTimingSummaryOnStderr(t *testing.T) {
	code, out, errOut := runCLI(t, "-quick", "-time", "table1", "fig2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "timing summary") {
		t.Errorf("stderr %q lacks timing summary", errOut)
	}
	for _, id := range []string{"table1", "fig2", "total (cpu)"} {
		if !strings.Contains(errOut, id) {
			t.Errorf("timing summary missing %q", id)
		}
	}
	if strings.Contains(out, "timing summary") {
		t.Error("timing summary leaked onto stdout")
	}
}

func TestBadFlagExitCode(t *testing.T) {
	code, _, _ := runCLI(t, "-definitely-not-a-flag", "all")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	// -sim-workers is not a flag: the simulator has one commit loop.
	code, _, errOut := runCLI(t, "-sim-workers", "4", "fig2")
	if code != 2 || !strings.Contains(errOut, "sim-workers") {
		t.Errorf("-sim-workers 4 fig2: exit %d stderr %q, want 2 naming the flag", code, errOut)
	}
}

func TestJSONList(t *testing.T) {
	code, out, _ := runCLI(t, "-json", "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var entries []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("-json list output is not valid JSON: %v", err)
	}
	if len(entries) != len(experiments.All()) {
		t.Fatalf("%d entries, want %d", len(entries), len(experiments.All()))
	}
	for i, e := range experiments.All() {
		if entries[i].ID != e.ID || entries[i].Title != e.Title {
			t.Errorf("entry %d = %+v, want %s/%s", i, entries[i], e.ID, e.Title)
		}
	}
}

func TestListCombinedWithArgsRejected(t *testing.T) {
	code, _, errOut := runCLI(t, "list", "fig1")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "cannot be combined") {
		t.Errorf("stderr %q lacks the combination diagnostic", errOut)
	}
	if code, _, errOut = runCLI(t, "fig1", "list"); code != 2 || !strings.Contains(errOut, "cannot be combined") {
		t.Errorf("list in later position: exit %d, stderr %q", code, errOut)
	}
}

func TestPlatformsMode(t *testing.T) {
	code, out, _ := runCLI(t, "platforms")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 6 {
		t.Fatalf("%d platforms listed, want >= 6:\n%s", len(lines), out)
	}
	for _, want := range []string{"Snowball", "XeonX5550", "Tegra2", "Exynos5Dual", "MontBlancNode", "ThunderX2"} {
		if !strings.Contains(out, want) {
			t.Errorf("platforms output missing %q", want)
		}
	}
	// -platform restricts and orders the listing.
	code, out, _ = runCLI(t, "-platform", "XeonX5550,Snowball", "platforms")
	if code != 0 {
		t.Fatalf("restricted exit %d", code)
	}
	lines = strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "XeonX5550") || !strings.HasPrefix(lines[1], "Snowball") {
		t.Errorf("restricted platforms = %q, want XeonX5550 then Snowball", out)
	}
}

func TestPlatformsModeJSON(t *testing.T) {
	code, out, _ := runCLI(t, "-json", "platforms")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var specs []platform.Spec
	if err := json.Unmarshal([]byte(out), &specs); err != nil {
		t.Fatalf("-json platforms output invalid: %v", err)
	}
	if len(specs) < 6 {
		t.Fatalf("%d specs, want >= 6", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("emitted spec %s invalid: %v", s.Name, err)
		}
	}
}

func TestPlatformsCombinedWithArgsRejected(t *testing.T) {
	code, _, errOut := runCLI(t, "platforms", "fig1")
	if code != 2 || !strings.Contains(errOut, "cannot be combined") {
		t.Errorf("exit %d, stderr %q", code, errOut)
	}
}

func TestUnknownPlatformFlag(t *testing.T) {
	code, _, errOut := runCLI(t, "-platform", "PDP-11", "sweep-matrix")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "PDP-11") || !strings.Contains(errOut, "montblanc platforms") {
		t.Errorf("stderr %q lacks the unknown-platform hint", errOut)
	}
}

func TestPlatformFlagRestrictsSweep(t *testing.T) {
	code, out, _ := runCLI(t, "-quick", "-platform", "Snowball,XeonX5550", "sweep-matrix")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "across 2 platforms") {
		t.Errorf("sweep not restricted to 2 platforms:\n%s", out)
	}
	if strings.Contains(out, "ThunderX2") {
		t.Error("excluded platform leaked into the sweep")
	}
}

// cliBoardCounter keeps file-registered test machines unique across
// repeated in-process runs (`go test -count=N`): the registry is
// global and permanent.
var cliBoardCounter atomic.Int64

func TestPlatformFileRegistersAndSweeps(t *testing.T) {
	spec, ok := platform.LookupSpec("Snowball")
	if !ok {
		t.Fatal("Snowball spec missing")
	}
	spec.Name = fmt.Sprintf("CLIBoard%d", cliBoardCounter.Add(1))
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "board.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-quick", "-platform-file", path,
		"-platform", spec.Name+",XeonX5550", "sweep-energy")
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut)
	}
	if !strings.Contains(errOut, "registered "+spec.Name) {
		t.Errorf("stderr %q lacks registration note", errOut)
	}
	if !strings.Contains(out, spec.Name) {
		t.Errorf("sweep output missing the file-defined machine:\n%s", out)
	}
}

func TestPlatformFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "-platform-file", path, "sweep-matrix")
	if code != 2 || !strings.Contains(errOut, "parsing") {
		t.Errorf("exit %d, stderr %q", code, errOut)
	}
	if code, _, _ = runCLI(t, "-platform-file", filepath.Join(t.TempDir(), "absent.json"), "all"); code != 2 {
		t.Errorf("missing spec file: exit %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	code, _, errOut := runCLI(t, "-help")
	if code != 0 {
		t.Errorf("-help exit %d, want 0", code)
	}
	if !strings.Contains(errOut, "usage: montblanc") {
		t.Errorf("-help stderr %q lacks usage", errOut)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	code, out, errOut := runCLI(t, "-cpuprofile", cpu, "-memprofile", mem, "-quick", "fig6")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "Figure 6") {
		t.Errorf("experiment output missing: %q", out)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestProfileFlagBadPathExitCode(t *testing.T) {
	code, _, errOut := runCLI(t, "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "x"), "-quick", "fig6")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "montblanc:") {
		t.Errorf("stderr %q lacks error", errOut)
	}
}

// --- serve verb ----------------------------------------------------

func TestServeUsageErrors(t *testing.T) {
	// Unknown serve flag.
	if code, _, errOut := runCLI(t, "serve", "-definitely-not-a-flag"); code != 2 {
		t.Errorf("bad serve flag: exit %d (stderr %q), want 2", code, errOut)
	}
	// Stray positional argument after the verb's flags.
	if code, _, errOut := runCLI(t, "serve", "fig1"); code != 2 || !strings.Contains(errOut, "unexpected argument") {
		t.Errorf("stray serve arg: exit %d stderr %q, want 2 + message", code, errOut)
	}
	// -h prints the serve usage and exits 0.
	code, _, errOut := runCLI(t, "serve", "-h")
	if code != 0 || !strings.Contains(errOut, "usage: montblanc serve") {
		t.Errorf("serve -h: exit %d stderr %q", code, errOut)
	}
	// An unusable listen address is a serve failure, not a usage error.
	if code, _, errOut := runCLI(t, "serve", "-addr", "256.256.256.256:99999"); code != 1 || !strings.Contains(errOut, "montblanc serve:") {
		t.Errorf("bad addr: exit %d stderr %q, want 1 + message", code, errOut)
	}
}

func TestTopLevelUsageMentionsServe(t *testing.T) {
	_, _, errOut := runCLI(t, "-help")
	if !strings.Contains(errOut, "montblanc serve") {
		t.Errorf("usage text does not mention the serve mode: %q", errOut)
	}
}

// --- writeTimings error propagation --------------------------------

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("stream closed") }

func TestWriteTimingsReportsWriteError(t *testing.T) {
	results := []runner.Result{{ID: "x", Title: "t"}}
	if err := writeTimings(failingWriter{}, results); err == nil {
		t.Fatal("writeTimings swallowed the write error")
	}
	var buf bytes.Buffer
	if err := writeTimings(&buf, results); err != nil {
		t.Fatalf("healthy writer: %v", err)
	}
	if !strings.Contains(buf.String(), "timing summary") {
		t.Errorf("summary missing: %q", buf.String())
	}
}

// --- worker-count flag validation -----------------------------------

// -parallel validation: negatives are usage errors, zero means
// "default", absurd values clamp to the documented bound with a note on
// stderr.
func TestWorkerFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr; "" means don't care
	}{
		{"parallel-negative", []string{"-parallel", "-1", "-quick", "fig2"}, 2, "-parallel must be >= 0"},
		{"parallel-zero-defaults", []string{"-parallel", "0", "-quick", "fig2"}, 0, ""},
		{"parallel-clamped", []string{"-parallel", "100000", "-quick", "fig2"}, 0, "-parallel 100000 clamped to 256"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errOut := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.wantCode, errOut)
			}
			if tc.wantErr != "" && !strings.Contains(errOut, tc.wantErr) {
				t.Errorf("stderr %q lacks %q", errOut, tc.wantErr)
			}
		})
	}
}

// -time also reports the process-wide DES engine aggregate once any
// simulation ran.
func TestTimingIncludesEngineStats(t *testing.T) {
	code, out, errOut := runCLI(t, "-quick", "-time", "fig3b")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "sim engine:") {
		t.Errorf("stderr %q lacks the sim engine summary", errOut)
	}
	for _, field := range []string{"runs", "events", "events/s"} {
		if !strings.Contains(errOut, field) {
			t.Errorf("engine summary missing %q in %q", field, errOut)
		}
	}
	if strings.Contains(out, "sim engine:") {
		t.Error("engine summary leaked onto stdout")
	}
}

// --- fault flag validation ------------------------------------------

// The -fault-* flags and -checkpoint-interval assemble a fault.Spec
// and validate it before anything runs: hostile numbers (NaN, negative
// rates, non-positive intervals) are usage errors naming the field.
func TestFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"checkpoint-interval-zero",
			[]string{"-checkpoint-interval", "0", "-quick", "resilience-sweep"},
			2, "-checkpoint-interval must be > 0"},
		{"checkpoint-interval-negative",
			[]string{"-checkpoint-interval", "-4", "-quick", "resilience-sweep"},
			2, "-checkpoint-interval must be > 0"},
		{"checkpoint-interval-nan",
			[]string{"-checkpoint-interval", "NaN", "-quick", "resilience-sweep"},
			2, "-checkpoint-interval must be > 0"},
		{"mtbf-negative",
			[]string{"-fault-mtbf", "-10", "-quick", "resilience-sweep"},
			2, "mtbf_seconds"},
		{"mtbf-nan",
			[]string{"-fault-mtbf", "NaN", "-quick", "resilience-sweep"},
			2, "mtbf_seconds"},
		{"downtime-negative",
			[]string{"-fault-downtime", "-1", "-quick", "resilience-sweep"},
			2, "downtime_seconds"},
		{"horizon-infinite",
			[]string{"-fault-horizon", "Inf", "-quick", "resilience-sweep"},
			2, "horizon_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.wantCode, errOut)
			}
			if out != "" {
				t.Errorf("rejected flags still produced output: %q", out)
			}
			if !strings.Contains(errOut, tc.wantErr) {
				t.Errorf("stderr %q lacks %q", errOut, tc.wantErr)
			}
		})
	}
}

// A checkpoint interval that would split the work into more segments
// than the resilience probe takes is an experiment error, reported
// before anything is simulated: the run exits 1 within a second, naming
// the interval. (A machine whose flop rate makes work / interval pass
// the int range is core.TestResilienceProbeBoundsSegments' case: a
// file-registered machine would stay in the registry for every later
// test here.)
func TestCheckpointIntervalSegmentBound(t *testing.T) {
	type result struct {
		code   int
		errOut string
	}
	done := make(chan result, 1)
	go func() {
		var out, errBuf bytes.Buffer
		code := run([]string{"-quick", "-checkpoint-interval", "1e-7", "resilience-sweep"}, &out, &errBuf)
		done <- result{code, errBuf.String()}
	}()
	select {
	case r := <-done:
		if want := "checkpoint interval 1e-07s"; r.code != 1 || !strings.Contains(r.errOut, want) {
			t.Fatalf("exit %d, stderr %q; want exit 1 naming %q", r.code, r.errOut, want)
		}
	case <-time.After(time.Second):
		t.Fatal("still running after a second")
	}
}

// A schedule assembled from flags replaces the sweep's built-in fault
// grid: the matrix rows carry the user schedule at the pinned
// checkpoint interval, and the default grid's rows are gone.
func TestFaultFlagsReachResilience(t *testing.T) {
	code, out, errOut := runCLI(t, "-quick", "-fault-mtbf", "40", "-fault-downtime", "2",
		"-fault-seed", "9", "-checkpoint-interval", "1.5", "resilience-sweep")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "user schedule tau=1.5s") {
		t.Errorf("output lacks the user schedule row:\n%s", out)
	}
	if strings.Contains(out, "failure-free") {
		t.Error("user schedule did not replace the built-in grid")
	}
}

// -fault-file loads a JSON schedule; its name labels the sweep rows,
// and broken or missing files are usage errors.
func TestFaultFileLoadsSchedule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sched.json")
	sched := `{"name":"maintenance","events":[{"node":0,"time":1,"downtime":0.5}],"checkpoint_interval_seconds":2}`
	if err := os.WriteFile(path, []byte(sched), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "-quick", "-fault-file", path, "resilience-sweep")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "maintenance tau=2s") {
		t.Errorf("sweep rows do not carry the file schedule's name:\n%s", out)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCLI(t, "-fault-file", bad, "resilience-sweep"); code != 2 ||
		!strings.Contains(errOut, "fault") {
		t.Errorf("broken schedule file: exit %d stderr %q, want 2 + fault error", code, errOut)
	}
	if code, _, _ := runCLI(t, "-fault-file", filepath.Join(dir, "absent.json"), "resilience-sweep"); code != 2 {
		t.Errorf("missing schedule file: exit %d, want 2", code)
	}
}
