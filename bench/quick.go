package main

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/simmpi"
	"montblanc/internal/stats"
)

// goldenPath is the pinned output of `montblanc -quick all`, relative
// to the repository root the benchmark runs from.
const goldenPath = "internal/experiments/testdata/quick_all.golden"

// tracedExperiments are the experiments reported one by one; the rest
// of the suite is summed into experiments.other.s.
var tracedExperiments = []string{
	"scale-membench", "locality", "fig4", "fig3a", "fig3c", "scale-ranks", "fig7", "resilience-daly",
}

// engineDelta returns the scheduler work committed between two
// simmpi.Engine snapshots.
func engineDelta(before, after simmpi.EngineStats) (events, runs uint64, wall float64) {
	return after.Events - before.Events, after.Runs - before.Runs, after.WallSeconds - before.WallSeconds
}

// quickSuite times sequential `-quick all` passes, each byte-compared
// with the golden file. One worker: a parallel pass is set by its
// critical path (scale-membench alone), which would hide a gain in any
// other layer.
func quickSuite(r *run) error {
	opts := experiments.Options{Quick: true}
	all := experiments.All()
	var golden []byte
	var buf bytes.Buffer
	var events, runs uint64 // per pass; every pass must repeat them exactly

	// check compares one pass with the golden and its scheduler work
	// with the first pass's.
	check := func(err error, before simmpi.EngineStats) {
		r.check(checkOutput(err, buf.Bytes(), golden))
		ev, rn, _ := engineDelta(before, simmpi.Engine())
		if events == 0 {
			events, runs = ev, rn
		}
		r.check(checkCount(ev, events))
		r.check(checkCount(rn, runs))
	}

	// Set-up loads the golden and runs one warm-up pass through the
	// library's own sequential runner, checked like every pass.
	for start, i := time.Now(), 0; r.settingUp(start, i); i++ {
		err := r.setup(func() error {
			var err error
			if golden, err = os.ReadFile(goldenPath); err != nil {
				return err
			}
			buf.Reset()
			before := simmpi.Engine()
			check(experiments.RunAllParallel(&buf, opts, 1), before)
			return nil
		})
		if err != nil {
			return err
		}
	}

	// pass runs the suite once, experiment by experiment as the
	// sequential runner does, traced or not, and checks it.
	pass := func(tr *tracer) (float64, float64, map[string]float64) {
		buf.Reset()
		before := simmpi.Engine()
		secs, chunks, perExp, err := runPass(tr, &r.ref, &buf, all, opts)
		check(err, before)
		return secs, chunks, perExp
	}

	var plain, traced []float64
	refSecs := 0.0 // of the reference chunks of the untraced passes
	perExp := map[string][]float64{}
	before := simmpi.Engine()
	for start, n := time.Now(), 0; r.measuring(start, n); n++ {
		secs, chunks, _ := pass(nil)
		plain = append(plain, secs)
		refSecs += chunks
		if r.tr == nil {
			continue
		}
		// Traced passes alternate with untraced ones so the two see the
		// same host conditions; their difference is the tracing overhead.
		secs, _, exp := pass(r.tr)
		traced = append(traced, secs)
		for id, s := range exp {
			perExp[id] = append(perExp[id], s)
		}
	}
	ev, _, wall := engineDelta(before, simmpi.Engine())

	r.params["experiments"] = len(all)
	r.params["passes"] = len(plain)
	r.params["workers"] = 1
	r.dist("suite_s", plain, 1)
	// The mean pass over the mean chunk timed between its experiments.
	mean := normalize(stats.Mean(plain), refSecs, len(plain)*len(all))
	r.set("work_ms", mean*1000)
	r.set("ops_per_s", float64(len(all))/mean)
	if r.tr != nil {
		for id, xs := range perExp {
			r.dist("experiments."+id+".s", xs, 1)
		}
		r.set("simmpi.events", float64(events))
		r.set("simmpi.runs", float64(runs))
		r.set("simmpi.events_per_s", float64(ev)/wall)
		r.set("trace.overhead_pct", overheadPct(plain, traced))
	}
	return nil
}

// runPass renders the suite exactly as the sequential runner does —
// banner, output, blank line per experiment — timing each
// Experiment.Run, with a span when tr is not nil, and timing one
// reference chunk before each. It returns the seconds of the pass's
// Experiment.Run calls and of its reference chunks, and per traced
// experiment its seconds, the others summed under "other".
func runPass(tr *tracer, ref *hostRef, buf *bytes.Buffer, all []experiments.Experiment, opts experiments.Options) (float64, float64, map[string]float64, error) {
	root := tr.begin("quick-suite.pass", 0, 0)
	defer tr.end(root)
	out := map[string]float64{}
	total, chunks := 0.0, 0.0
	for _, e := range all {
		chunks += ref.sample(1)
		fmt.Fprintf(buf, "==== %s: %s ====\n", e.ID, e.Title)
		id := tr.begin("experiments."+e.ID, root, 0)
		start := time.Now()
		err := e.Run(buf, opts)
		secs := time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return total, chunks, out, err
		}
		buf.WriteString("\n")
		key := "other"
		if slices.Contains(tracedExperiments, e.ID) {
			key = e.ID
		}
		out[key] += secs
		total += secs
	}
	return total, chunks, out, nil
}

// overheadPct is the tracing overhead: how much slower the median
// traced unit ran than the median untraced one, in percent.
func overheadPct(plain, traced []float64) float64 {
	p := summarize(plain).Median
	return (summarize(traced).Median - p) / p * 100
}
