// Command bench is montblanc's layered benchmark. It runs one of three
// workloads — each chosen so that one layer of the simulator does most
// of the work — checks every output it produces, and prints every
// metric by name with its unit. See README.md beside this file.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload quick-suite --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare BASE NEW
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Each run also
// writes a result file (metrics with quartiles and sample counts, plus
// host and parameter metadata) under --out, and a traced run writes its
// spans beside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"quick-suite", quickSuite},
	{"ranks-10k", ranks10k},
	{"serve-tiers", serveTiers},
}

// A workload sets up at least setupRepeats times and for at least
// setupSeconds per run; setup_s is the median, so a slow start does not
// move it, and a set-up of a few milliseconds is taken many times.
const (
	setupRepeats = 5
	setupSeconds = 2.0
)

// minUnits is the fewest measured units a run takes, however short
// --seconds is.
const minUnits = 3

// procs is the number of Go processors a run uses. One: on a shared
// 2-vCPU host, work handed between two OS threads — a client and the
// service, or the program and its garbage collector — waits on the host's
// scheduling of the other vCPU, and that wait varied from run to run by
// more than the work measured (serve-tiers' LRU throughput spread by 15%
// over five runs on two processors, 4% on one). Every workload is
// sequential, so one processor is its natural shape.
const procs = 1

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: quick-suite, ranks-10k or serve-tiers")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for the result file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs)
	r, err := execute(w, *seed, *seconds, *traced, *out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printTable(stdout, r)
	line, err := json.Marshal(r.summaryLine())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// execute runs workload w once and writes its result file (and spans).
func execute(w *workload, seed uint64, seconds float64, trace int, outDir string) (*run, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	traced := trace == 1
	r := newRun(w.name, seed, seconds, traced, work)
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced {
		if err := probeLayers(r); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
		}
	}
	r.finish()
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))
	if traced {
		if err := writeSpans(base+".spans.json", r.tr.snapshot()); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(r.resultFile(), "", " ")
	if err != nil {
		return nil, err
	}
	return r, os.WriteFile(base+".json", b, 0o644)
}

// metric is one reported number. Timings summarized from a sample carry
// its size, quartiles and tail percentile; Value is then the median.
type metric struct {
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Value   float64 `json:"value"`
	N       int     `json:"n,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	tr       *tracer // nil unless traced
	dir      string  // scratch directory inside the checkout, removed at exit
	params   map[string]any
	metrics  map[string]metric
	setups   []float64 // host-normalized by the chunk before each
	rawSetup []float64
	ref      hostRef // reference chunks timed through the run

	attempted int
	failures  map[failure]int
}

func newRun(name string, seed uint64, seconds float64, traced bool, dir string) *run {
	r := &run{
		workload: name, seed: seed, seconds: seconds, dir: dir,
		params:   map[string]any{},
		metrics:  map[string]metric{},
		failures: map[failure]int{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// check counts one attempted operation and its failure class, if any.
func (r *run) check(f failure) {
	r.attempted++
	if f != ok {
		r.failures[f]++
	}
}

func (r *run) failed() int {
	n := 0
	for _, c := range r.failures {
		n += c
	}
	return n
}

// set records a scalar metric declared in the spec tables.
func (r *run) set(name string, v float64) {
	s := specOf(name)
	r.metrics[name] = metric{Unit: s.Unit, Better: s.Better, Value: v}
}

// dist records a metric summarized from a sample, scaled by scale, and
// returns the unscaled summary.
func (r *run) dist(name string, xs []float64, scale float64) dist {
	s := specOf(name)
	d := summarize(xs)
	r.metrics[name] = metric{
		Unit: s.Unit, Better: s.Better, Value: d.Median * scale, N: d.N, Min: d.Min * scale,
		Q1: d.Q1 * scale, Q3: d.Q3 * scale, TailPct: d.TailPct, Tail: d.Tail * scale,
	}
	return d
}

// setup times one set-up of the workload, and normalizes it by one
// reference chunk timed just before: the first seconds of a run may see
// another host state than the rest.
func (r *run) setup(f func() error) error {
	chunk := r.ref.sample(1)
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	secs := time.Since(start).Seconds()
	r.rawSetup = append(r.rawSetup, secs)
	r.setups = append(r.setups, normalize(secs, chunk, 1))
	return nil
}

// settingUp reports whether a set-up loop that started at start and has
// set up n times should set up again.
func (r *run) settingUp(start time.Time, n int) bool {
	return n < setupRepeats || time.Since(start).Seconds() < setupSeconds
}

// measuring reports whether a measured loop that started at start and
// has done n units should run another.
func (r *run) measuring(start time.Time, n int) bool {
	return n < minUnits || time.Since(start).Seconds() < r.seconds
}

// finish derives the metrics every workload reports.
func (r *run) finish() {
	r.dist("setup_raw_s", r.rawSetup, 1)
	r.dist("setup_s", r.setups, 1)
	r.set("host_ref_ms", r.ref.chunkMs())
	r.set("error_ratio", float64(r.failed())/float64(max(r.attempted, 1)))
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if r.tr != nil {
		// A layer this workload never calls reports 0.
		for _, s := range perLayer {
			if _, ok := r.metrics[s.Name]; !ok {
				r.set(s.Name, 0)
			}
		}
	}
}

// summaryLine is the last line a run prints: the end-to-end metrics, or
// with tracing the per-layer ones.
func (r *run) summaryLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if r.tr != nil {
		specs = perLayer
	}
	ms := map[string]value{}
	for _, s := range specs {
		ms[s.Name] = value{r.metrics[s.Name].Value, s.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed() == 0, r.attempted, r.failed(), ms}
}

// resultFile is the full record of one run, in the shape of a
// parameters-plus-measurements document.
type resultFile struct {
	Benchmark  string            `json:"benchmark"`
	Timestamp  string            `json:"timestamp"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Parameters map[string]any    `json:"parameters"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   map[failure]int   `json:"failures"`
	Metrics    map[string]metric `json:"metrics"`
}

func (r *run) resultFile() resultFile {
	params := hostParameters()
	params["seed"] = r.seed
	params["seconds"] = r.seconds
	params["setup_repeats"] = len(r.setups)
	for k, v := range r.params {
		params[k] = v
	}
	return resultFile{
		Benchmark:  "montblanc-bench",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Workload:   r.workload,
		Seed:       r.seed,
		Trace:      r.tr != nil,
		Parameters: params,
		Correct:    r.failed() == 0,
		Attempted:  r.attempted,
		Failed:     r.failed(),
		Failures:   r.failures,
		Metrics:    r.metrics,
	}
}

// printTable prints every metric of the run, one per line.
func printTable(w io.Writer, r *run) {
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d attempted, %d failed\n", r.workload, r.seed, r.tr != nil, r.attempted, r.failed())
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d min=%.6g q1=%.6g q3=%.6g", m.N, m.Min, m.Q1, m.Q3)
		}
		if m.TailPct > 0 {
			fmt.Fprintf(w, " p%g=%.6g", m.TailPct, m.Tail)
		}
		fmt.Fprintln(w)
	}
}
