package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// verdict is the outcome of comparing one metric across two commits.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a candidate against those of a base, run
// i of each side forming pair i. The candidate is better when it wins
// at least nine tenths of the pairs (ties count for neither side) and
// the medians differ by more than the base's own spread, the distance
// between its quartiles; worse under the mirror rule; otherwise the
// runs cannot tell the two apart.
func judge(base, cand []float64, higherIsBetter bool) verdict {
	pairs := min(len(base), len(cand))
	if pairs == 0 {
		return unresolved
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		d := cand[i] - base[i]
		if !higherIsBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	b, c := summarize(base), summarize(cand)
	gain := c.Median - b.Median
	if !higherIsBetter {
		gain = -gain
	}
	spread := b.Q3 - b.Q1
	switch {
	case 10*wins >= 9*pairs && gain > spread:
		return better
	case 10*losses >= 9*pairs && -gain > spread:
		return worse
	}
	return unresolved
}

// loadResults reads result files: each argument is a file or a
// directory whose *.json result files (not span files) are all read.
func loadResults(path string) ([]resultFile, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		all, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, f := range all {
			if !strings.HasSuffix(f, ".spans.json") {
				files = append(files, f)
			}
		}
	}
	var out []resultFile
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// hardware lists the distinct hosts and toolchains the runs report.
func hardware(rs []resultFile) string {
	seen := map[string]bool{}
	for _, rf := range rs {
		p := rf.Parameters
		seen[fmt.Sprintf("cpu=%v nproc=%v GOMAXPROCS=%v go=%v", p["cpu"], p["nproc"], p["GOMAXPROCS"], p["go"])] = true
	}
	hosts := make([]string, 0, len(seen))
	for h := range seen {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return strings.Join(hosts, "; ")
}

// series groups the runs' values by workload and metric, in seed order
// so that runs of the two sides with the same seed pair up.
type seriesKey struct{ workload, metric string }

func series(rs []resultFile) (map[seriesKey][]float64, map[seriesKey]metric) {
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	values := map[seriesKey][]float64{}
	meta := map[seriesKey]metric{}
	for _, rf := range rs {
		for name, m := range rf.Metrics {
			k := seriesKey{rf.Workload, name}
			values[k] = append(values[k], m.Value)
			meta[k] = m
		}
	}
	return values, meta
}

// compareMain prints one row per (workload, metric) present on both
// sides: each side's median and quartiles over its runs, the ratio of
// the medians with its base, and the verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE NEW (each a result file or a directory of them)")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cand, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if hb, hc := hardware(base), hardware(cand); hb != hc {
		fmt.Fprintf(stdout, "warning: the two sides ran on different hosts or toolchains, so their numbers do not compare:\n  base: %s\n  new:  %s\n", hb, hc)
	}
	bv, meta := series(base)
	cv, _ := series(cand)
	keys := make([]seriesKey, 0, len(bv))
	for k := range bv {
		if _, found := cv[k]; found {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-12s %-34s %-6s %-34s %-34s %-22s %s\n",
		"workload", "metric", "unit", "base median [q1, q3] (n)", "new median [q1, q3] (n)", "new/base", "verdict")
	for _, k := range keys {
		m := meta[k]
		b, c := summarize(bv[k]), summarize(cv[k])
		ratio := "n/a (base 0)"
		if b.Median != 0 {
			ratio = fmt.Sprintf("%.3f (base %.4g)", c.Median/b.Median, b.Median)
		}
		fmt.Fprintf(stdout, "%-12s %-34s %-6s %-34s %-34s %-22s %s\n", k.workload, k.metric, m.Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", b.Median, b.Q1, b.Q3, b.N),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", c.Median, c.Q1, c.Q3, c.N),
			ratio, judge(bv[k], cv[k], m.Better == "higher"))
	}
	return 0
}
