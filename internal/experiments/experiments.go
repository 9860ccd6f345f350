// Package experiments contains one driver per table and figure of the
// paper. Each driver runs the underlying models/simulations and renders
// the same rows or series the paper reports, so `montblanc <id>`
// regenerates any result.
package experiments

import (
	"fmt"
	"io"
	"path"
	"runtime"
	"sort"

	"montblanc/internal/fault"
	"montblanc/internal/platform"
	"montblanc/internal/runner"
)

// Options tunes experiment execution. It is also the "options" object
// of a /v1/run request (SERVICE.md), hence the JSON tags; the inline
// Specs travel at the top level of the request instead.
type Options struct {
	// Quick shrinks instance sizes and repetition counts so the full
	// suite runs in seconds (used by tests and `montblanc -quick all`).
	Quick bool `json:"quick"`
	// Seed overrides the default deterministic seed (0 keeps defaults).
	Seed uint64 `json:"seed"`
	// Platforms restricts the cross-platform sweep experiments to the
	// named platforms, in the given order. Empty means every resolvable
	// platform. Experiments reproducing a specific paper artifact
	// ignore it: fig5 is a Snowball study whatever the sweep set says.
	Platforms []string `json:"platforms,omitempty"`
	// Specs are request-scoped inline machine specs, resolved alongside
	// the global registry without registering anything (see
	// platform.Resolver); an inline spec may shadow a registered name.
	// The service uses this to honor per-request machines while
	// concurrent requests never fight over the process-wide registry.
	Specs []platform.Spec `json:"-"`
	// Fault replaces the resilience experiments' built-in fault grid
	// with one user-supplied schedule (see internal/fault.Spec); nil
	// keeps the defaults. It changes experiment output, so it is part
	// of the cache key (CanonicalJSON).
	Fault *fault.Spec `json:"fault,omitempty"`
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Cost is a relative wall-clock weight used by the parallel runner
	// to dispatch expensive experiments first (zero means 1). It has
	// no effect on output order or content.
	Cost int
	Run  func(w io.Writer, o Options) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Match returns the experiments whose IDs match any of the given
// arguments, in ID order without duplicates. An argument is an exact
// ID, the keyword "all", or a path.Match glob pattern ("fig*"). It
// returns an error naming the first argument that selects nothing.
func Match(args ...string) ([]Experiment, error) {
	picked := map[string]bool{}
	for _, arg := range args {
		switch {
		case arg == "all":
			for id := range registry {
				picked[id] = true
			}
		case registry[arg].Run != nil:
			picked[arg] = true
		default:
			matched := false
			for id := range registry {
				ok, err := path.Match(arg, id)
				if err != nil {
					return nil, fmt.Errorf("experiments: bad pattern %q: %w", arg, err)
				}
				if ok {
					picked[id] = true
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("experiments: unknown experiment %q", arg)
			}
		}
	}
	out := make([]Experiment, 0, len(picked))
	for id := range picked {
		out = append(out, registry[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Task adapts an experiment to the runner.
func (e Experiment) Task(o Options) runner.Task {
	return runner.Task{
		ID:     e.ID,
		Title:  e.Title,
		Weight: e.Cost,
		Run:    func(w io.Writer) error { return e.Run(w, o) },
	}
}

// Results executes the given experiments on a pool of `workers`
// concurrent workers (<= 0 means GOMAXPROCS) and returns structured
// results in input order. Errors are carried per result; every
// experiment runs regardless of other failures.
func Results(es []Experiment, o Options, workers int) []runner.Result {
	tasks := make([]runner.Task, len(es))
	for i, e := range es {
		tasks[i] = e.Task(o)
	}
	p := runner.Pool{Workers: workers}
	return p.Run(tasks)
}

// sectionHeader is the section banner; every path that renders headed
// sections must use it so output stays byte-identical across the
// buffered and direct-write paths.
const sectionHeader = "==== %s: %s ====\n"

// emitSection writes one headed result section (banner, the rendered
// output, a trailing blank line). A failed result keeps its partial
// output and banner but no trailing blank line, exactly as the old
// sequential loop left the stream; the returned error carries the
// same wrapping. Writer errors are propagated so a broken pipe
// (`montblanc all | head`) stops the suite instead of computing every
// remaining experiment against a dead stream.
func emitSection(w io.Writer, r runner.Result) error {
	if _, err := fmt.Fprintf(w, sectionHeader, r.ID, r.Title); err != nil {
		return fmt.Errorf("experiments: writing %s section: %w", r.ID, err)
	}
	if _, err := io.WriteString(w, r.Output); err != nil {
		return fmt.Errorf("experiments: writing %s section: %w", r.ID, err)
	}
	if r.Err != nil {
		return fmt.Errorf("experiments: %s: %w", r.ID, r.Err)
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return fmt.Errorf("experiments: writing %s section: %w", r.ID, err)
	}
	return nil
}

// Stream executes the given experiments on `workers` concurrent
// workers (<= 0 means GOMAXPROCS), writing each headed section to w in
// ID order as soon as it and all its predecessors finish — long suites
// start printing while the tail still computes. It returns the results
// emitted so far (on the single-worker path the Output field is empty:
// bytes went straight to w). On failure it stops at the first (in ID
// order) failed experiment, matching sequential semantics: experiments
// already started run to completion, not-yet-started ones are skipped.
func Stream(w io.Writer, es []Experiment, o Options, workers int) ([]runner.Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return streamSequential(w, es, o)
	}
	tasks := make([]runner.Task, len(es))
	for i, e := range es {
		tasks[i] = e.Task(o)
	}
	p := runner.Pool{Workers: workers}
	results := make([]runner.Result, 0, len(tasks))
	var failed error
	p.Stream(tasks, func(r runner.Result) bool {
		results = append(results, r)
		failed = emitSection(w, r)
		return failed == nil
	})
	return results, failed
}

// streamSequential is the one-worker path: experiments write to w
// directly as they render (no per-task buffer), so output appears
// progressively *within* an experiment, like the historical loop.
// Same bytes as the pooled path, just sooner, and the same recover: a
// panicking experiment fails with a *runner.PanicError.
func streamSequential(w io.Writer, es []Experiment, o Options) ([]runner.Result, error) {
	results := make([]runner.Result, 0, len(es))
	for _, e := range es {
		if _, err := fmt.Fprintf(w, sectionHeader, e.ID, e.Title); err != nil {
			return results, fmt.Errorf("experiments: writing %s section: %w", e.ID, err)
		}
		r := runner.ExecTo(e.Task(o), w)
		results = append(results, r)
		if r.Err != nil {
			return results, fmt.Errorf("experiments: %s: %w", e.ID, r.Err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return results, fmt.Errorf("experiments: writing %s section: %w", e.ID, err)
		}
	}
	return results, nil
}

// RunAllParallel executes every experiment on `workers` concurrent
// workers (<= 0 means GOMAXPROCS) and writes headed sections in ID
// order. With several workers each experiment renders into its own
// buffer, so output does not depend on the worker count.
func RunAllParallel(w io.Writer, o Options, workers int) error {
	_, err := Stream(w, All(), o, workers)
	return err
}
