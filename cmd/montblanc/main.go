// Command montblanc regenerates the tables and figures of "Performance
// Analysis of HPC Applications on Low-Power Embedded Platforms" (DATE
// 2013) from the simulation models in this repository.
//
// Usage:
//
//	montblanc list               # show available experiments
//	montblanc platforms          # show registered machine models
//	montblanc table2             # reproduce one table/figure
//	montblanc all                # reproduce everything
//	montblanc fig1 table2        # several at once (headed sections)
//	montblanc 'fig3*'            # glob over experiment IDs
//	montblanc 'sweep*'           # cross-platform sweeps over every machine
//	montblanc -quick all         # smaller instances, seconds instead of minutes
//	montblanc -seed 7 fig5       # override the deterministic seed
//	montblanc -parallel 4 all    # worker-pool execution, same bytes out
//	montblanc -json 'fig*'       # structured results for downstream tooling
//	montblanc -time all          # per-experiment timing summary on stderr
//
//	montblanc -platform Snowball,ThunderX2 'sweep*'   # restrict sweep set
//	montblanc -platform-file mymachine.json 'sweep*'  # add machines from JSON specs
//	montblanc -quick energy-phases                    # joules by execution state
//	montblanc -quick scale-membench                   # batched engine at 100s-of-MB scale
//
//	montblanc -quick 'resilience*'                    # failures x checkpoint intervals
//	montblanc -fault-mtbf 300 -quick resilience-sweep # custom failure rate
//	montblanc -fault-file sched.json resilience-daly  # explicit schedule (FAULT.md)
//
//	montblanc -cpuprofile cpu.pb.gz locality          # pprof CPU profile of any experiment
//	montblanc -memprofile mem.pb.gz -quick all        # pprof allocation profile
//
//	montblanc serve -addr :8080                       # simulation-as-a-service (see SERVICE.md)
//	montblanc -platform-file m.json serve             # serve extra machines too
//	montblanc serve -cache-dir /var/cache/montblanc   # results survive restarts (even kill -9)
//	montblanc call -url http://host:8080 'fig3*'      # resilient client: retries, backoff, Retry-After
//	montblanc call -quick -fault-mtbf 300 resilience-sweep  # option flags go after the verb
//
// The serve mode exposes the experiments over HTTP/JSON (POST /v1/run,
// GET /v1/experiments, /v1/platforms, /metrics, /healthz) with a
// content-addressed result cache in front of the runner pool: repeated
// requests for the same (experiment, options, platform specs) hash are
// O(1) cache hits, byte-identical to the cold run, and concurrent
// identical requests cost one simulation. SIGINT/SIGTERM drain
// in-flight work before exit.
//
// The -cpuprofile and -memprofile flags wrap the whole run in the
// standard runtime/pprof collectors, so perf work on any experiment
// needs no ad-hoc harness: run the experiment under a profile flag and
// inspect the file with `go tool pprof`. The allocation profile is
// written when the run finishes (after a final GC, so live-object
// numbers are settled).
//
// Platform specs may carry a state-resolved "power" section (idle /
// compute / memory / communication watts; see PLATFORMS.md). The
// energy-phases experiment integrates those profiles over phased runs;
// machines without a power section keep the paper's constant envelope.
//
// Experiments run concurrently on -parallel workers (default
// GOMAXPROCS), each into a private buffer; output is emitted in ID
// order, so stdout is byte-identical for any worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service"
	"montblanc/internal/simmpi"
)

// maxParallel bounds -parallel: beyond it extra experiment workers only
// contend (there are ~20 experiments), so absurd values clamp here
// instead of spawning thousands of goroutine pools.
const maxParallel = 256

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process-global bits, so tests can drive the
// CLI in-process. It returns the exit code: 0 ok, 1 experiment failure
// (or a failed profile write at exit), 2 usage or unknown experiment.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("montblanc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	optFlags := addOptionFlags(fs)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "number of concurrent experiment workers")
	jsonOut := fs.Bool("json", false, "emit results as a JSON array instead of rendered text")
	timing := fs.Bool("time", false, "print a per-experiment timing summary to stderr")
	platFile := fs.String("platform-file", "", "JSON platform spec file to register before running (one spec or an array)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	// serve and call take no experiment options from this command line:
	// serve's requests carry their own and call parses them after its
	// verb. Given here, they would be dropped without a word.
	if verb := fs.Arg(0); verb == "serve" || verb == "call" {
		if given := optFlags.given(); len(given) > 0 {
			fmt.Fprintf(stderr, "montblanc: -%s given before '%s' would be ignored; experiment options go after the 'call' verb (run 'montblanc call -h')\n",
				strings.Join(given, ", -"), verb)
			return 2
		}
	}

	switch {
	case *parallel < 0:
		fmt.Fprintf(stderr, "montblanc: -parallel must be >= 0, got %d\n", *parallel)
		return 2
	case *parallel == 0:
		*parallel = runtime.GOMAXPROCS(0)
	case *parallel > maxParallel:
		fmt.Fprintf(stderr, "montblanc: -parallel %d clamped to %d\n", *parallel, maxParallel)
		*parallel = maxParallel
	}

	// Profiles wrap the whole run — experiment selection, simulation and
	// rendering — so any experiment can be profiled without an ad-hoc
	// harness: `montblanc -cpuprofile cpu.pb.gz -quick locality`. Files
	// are created eagerly so path errors fail the run up front; the
	// deferred writers run on every exit path below. The memprofile
	// defer is registered first so that (LIFO) StopCPUProfile runs
	// before the heap settles and serializes — the allocation-profile
	// GC must not be sampled into the CPU profile.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 2
		}
		defer func() {
			runtime.GC() // settle the heap so live objects are accurate
			err := pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "montblanc:", err)
				if code == 0 {
					code = 1 // a truncated profile must not look like success
				}
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "montblanc:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	if *platFile != "" {
		names, err := platform.LoadSpecFile(*platFile)
		if err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 2
		}
		fmt.Fprintf(stderr, "montblanc: registered %s from %s\n",
			strings.Join(names, ", "), *platFile)
	}

	// The serve mode owns everything after the verb ("montblanc serve
	// -addr :8080"); the top-level flag parse stopped at the first
	// non-flag argument, so serve's flags arrive here unparsed.
	// -platform-file has already run: machines registered from files
	// are served like builtins.
	if fs.Arg(0) == "serve" {
		return runServe(fs.Args()[1:], stderr)
	}
	// The call mode likewise owns everything after its verb: it is the
	// resilient HTTP client for a running serve instance (see call.go).
	if fs.Arg(0) == "call" {
		return runCall(fs.Args()[1:], stdout, stderr)
	}

	parsed, err := optFlags.options()
	if err != nil {
		fmt.Fprintln(stderr, "montblanc:", err)
		return 2
	}
	opts, err := parsed.Normalize()
	if err != nil {
		oe := &experiments.OptionError{}
		errors.As(err, &oe)
		if oe.Option == "platforms" {
			fmt.Fprintf(stderr, "montblanc: %v (try 'montblanc platforms')\n", err)
		} else {
			fmt.Fprintln(stderr, "montblanc:", err)
		}
		return 2
	}

	for _, arg := range fs.Args() {
		if arg != "platforms" {
			continue
		}
		if fs.NArg() > 1 {
			fmt.Fprintln(stderr, "montblanc: 'platforms' cannot be combined with experiment arguments")
			return 2
		}
		return listPlatforms(stdout, stderr, opts.Platforms, *jsonOut)
	}

	for _, arg := range fs.Args() {
		if arg != "list" {
			continue
		}
		if fs.NArg() > 1 {
			fmt.Fprintln(stderr, "montblanc: 'list' cannot be combined with experiment arguments")
			return 2
		}
		if *jsonOut {
			type entry struct {
				ID    string `json:"id"`
				Title string `json:"title"`
			}
			entries := make([]entry, 0, len(experiments.All()))
			for _, e := range experiments.All() {
				entries = append(entries, entry{ID: e.ID, Title: e.Title})
			}
			if err := report.EncodeJSON(stdout, entries); err != nil {
				fmt.Fprintln(stderr, "montblanc:", err)
				return 1
			}
			return 0
		}
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	selected, err := experiments.Match(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "montblanc: %v (try 'montblanc list')\n", err)
		return 2
	}

	var results []runner.Result
	if *timing {
		defer func() {
			if err := writeTimings(stderr, results); err != nil {
				fmt.Fprintln(stderr, "montblanc:", err)
				if code == 0 {
					code = 1 // a lost -time summary must not look like success
				}
			}
			if err := writeEngineStats(stderr); err != nil {
				fmt.Fprintln(stderr, "montblanc:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	if *jsonOut {
		// A JSON array is inherently buffered: collect, then encode.
		results = experiments.Results(selected, opts, *parallel)
		if err := report.EncodeJSON(stdout, results); err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 1
		}
		for _, r := range results {
			if r.Err != nil {
				return 1
			}
		}
		return 0
	}

	// A single experiment named exactly keeps the historical raw output
	// (no section header), written straight to stdout as it renders. A
	// panic fails it like any error: exit 1 with a *runner.PanicError.
	if len(selected) == 1 && fs.NArg() == 1 && fs.Arg(0) == selected[0].ID {
		r := runner.ExecTo(selected[0].Task(opts), stdout)
		results = []runner.Result{r}
		if r.Err != nil {
			fmt.Fprintln(stderr, "montblanc:", r.Err)
			return 1
		}
		return 0
	}

	// Anything wider streams headed sections in ID order as they
	// complete, while later experiments still compute.
	streamed, err := experiments.Stream(stdout, selected, opts, *parallel)
	results = streamed
	if err != nil {
		fmt.Fprintln(stderr, "montblanc:", err)
		return 1
	}
	return 0
}

// runServe runs the simulation service until SIGINT/SIGTERM, then
// drains gracefully. It returns the exit code: 0 clean shutdown, 1
// serve failure, 2 usage.
func runServe(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("montblanc serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	cacheEntries := fs.Int("cache-entries", 0, "maximum in-memory cached results (content-addressed LRU; unset = 1024)")
	cacheDir := fs.String("cache-dir", "", "directory for the durable result store (persists across restarts; empty = memory only)")
	cachePersistMax := fs.Int64("cache-persist-max-bytes", 0, "bound on durable-store payload bytes, oldest pruned first (0 = unlimited)")
	maxConcurrent := fs.Int("max-concurrent", runtime.GOMAXPROCS(0), "maximum simulations executing at once")
	requestTimeout := fs.Duration("request-timeout", 60*time.Second, "per-request timeout (the simulation continues and lands in the cache)")
	shutdownGrace := fs.Duration("shutdown-grace", 30*time.Second, "bound on draining in-flight work at shutdown")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: montblanc serve [flags]

Serves experiments over HTTP/JSON with a content-addressed result
cache (see SERVICE.md): POST /v1/run, GET /v1/experiments,
/v1/platforms, /metrics, /healthz. Repeated requests for the same
(experiment, options, platform specs) content hash are answered from
the cache; concurrent identical requests cost one simulation.

With -cache-dir the cache gains a durable tier: results are written to
disk (atomic rename, checksummed) and survive restarts — even kill -9 —
so an identical request after restart is a disk hit, not a re-run.
Corrupt entries are detected on read, quarantined as *.corrupt and
recomputed; see the persistence section of SERVICE.md.

Flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "montblanc serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// -cache-entries left unset means "service default" (1024); set, it
	// must be a real capacity. An explicit 0 or negative used to be
	// silently coerced to the default — now it is a usage error, so a
	// typo cannot masquerade as a 1024-entry cache.
	entriesSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "cache-entries" {
			entriesSet = true
		}
	})
	if entriesSet && *cacheEntries <= 0 {
		fmt.Fprintf(stderr, "montblanc serve: -cache-entries must be > 0, got %d (omit the flag for the default 1024)\n", *cacheEntries)
		return 2
	}
	if *cachePersistMax < 0 {
		fmt.Fprintf(stderr, "montblanc serve: -cache-persist-max-bytes must be >= 0, got %d\n", *cachePersistMax)
		return 2
	}

	srv, err := service.New(service.Config{
		MaxConcurrent:        *maxConcurrent,
		CacheSize:            *cacheEntries,
		CacheDir:             *cacheDir,
		CachePersistMaxBytes: *cachePersistMax,
		RequestTimeout:       *requestTimeout,
		ShutdownGrace:        *shutdownGrace,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "montblanc serve:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "montblanc serve:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintln(stderr, "montblanc serve:", err)
		return 1
	}
	return 0
}

// listPlatforms renders the `platforms` mode: the registered machine
// models (optionally restricted by -platform), one per line as text, or
// the full serializable specs under -json.
func listPlatforms(stdout, stderr io.Writer, selected []string, jsonOut bool) int {
	names := selected
	if len(names) == 0 {
		names = platform.Names()
	}
	if jsonOut {
		specs := make([]platform.Spec, 0, len(names))
		for _, n := range names {
			s, ok := platform.LookupSpec(n)
			if !ok {
				fmt.Fprintf(stderr, "montblanc: unknown platform %q\n", n)
				return 2
			}
			specs = append(specs, s)
		}
		if err := report.EncodeJSON(stdout, specs); err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 1
		}
		return 0
	}
	for _, n := range names {
		p, err := platform.Lookup(n)
		if err != nil {
			fmt.Fprintln(stderr, "montblanc:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%-14s %s\n", p.Name, p.String())
	}
	return 0
}

// writeTimings renders a per-experiment wall-clock summary, slowest
// first, to w. The write error is returned — a -time summary lost to
// a closed stderr must surface like every other failed write path.
func writeTimings(w io.Writer, results []runner.Result) error {
	sorted := append([]runner.Result(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Duration > sorted[j].Duration
	})
	tab := &report.Table{
		Title:   "timing summary (per-experiment wall clock)",
		Headers: []string{"experiment", "seconds", "status"},
	}
	var total float64
	for _, r := range sorted {
		status := "ok"
		if r.Err != nil {
			status = "error"
		}
		tab.AddRow(r.ID, r.Duration.Seconds(), status)
		total += r.Duration.Seconds()
	}
	tab.AddRow("total (cpu)", total, "")
	if _, err := io.WriteString(w, tab.String()); err != nil {
		return fmt.Errorf("writing timing summary: %w", err)
	}
	return nil
}

// writeEngineStats renders the process-wide DES scheduler aggregate
// under -time: runs, committed events and their throughput. Runs that
// never entered the simulator (list/platforms paths are excluded
// earlier; fig1/2 are analytic) leave the counters at zero, in which
// case nothing prints.
func writeEngineStats(w io.Writer) error {
	st := simmpi.Engine()
	if st.Runs == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w,
		"sim engine: %d runs, %d events (%.3g events/s)\n",
		st.Runs, st.Events, st.EventsPerSec)
	if err != nil {
		return fmt.Errorf("writing sim engine summary: %w", err)
	}
	return nil
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintf(w, `usage: montblanc [flags] <experiment|pattern>... | list | platforms | all
       montblanc serve [serve flags]   (run 'montblanc serve -h')
       montblanc call [call flags] <experiment|pattern>...   (run 'montblanc call -h')

Reproduces the tables and figures of Stanisic et al., "Performance
Analysis of HPC Applications on Low-Power Embedded Platforms" (DATE'13).

Arguments name experiments ('montblanc list'), glob over their IDs
('fig*', 'table?', 'sweep*'), or the keyword 'all'. Several may be
given; each runs once, concurrently on -parallel workers, and output is
emitted in ID order regardless of completion order.

'montblanc platforms' lists the registered machine models the sweep*
experiments compare; -platform restricts that set and -platform-file
registers additional machines from a JSON spec file. Specs may include
a state-resolved "power" section (idle/compute/memory/comm watts, see
PLATFORMS.md) used by the energy-phases experiment; without one a
machine is charged its constant envelope, the paper's §III.C model.

-cpuprofile and -memprofile write runtime/pprof profiles of the whole
run (selection, simulation, rendering) for use with 'go tool pprof'.

The -fault-* flags and -checkpoint-interval inject a deterministic
fault schedule (node crashes, link degradations; see FAULT.md) into the
resilience* experiments: -fault-file loads a JSON schedule, the scalar
flags fill or override its fields. Fault-injected runs too are
byte-identical run to run.

'montblanc serve' runs the experiments as a long-lived HTTP/JSON
service with a content-addressed result cache (SERVICE.md documents
the API); machines registered via -platform-file are served too. With
-cache-dir the cache persists across restarts. 'montblanc call' is the
matching resilient client: capped exponential backoff with full
jitter, Retry-After honored on 503, per-attempt timeouts and a total
retry budget — blind retries are safe because requests are
content-addressed. call takes the experiment-option flags below
(-quick, -seed, -platform, -fault-*, -checkpoint-interval) after its
verb and sends them as the request's options; given before 'serve' or
'call' they are a usage error.

`)
	fs.PrintDefaults()
}
