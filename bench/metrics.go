package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec declares one metric: its name, unit and which direction is
// better. BENCHMARK.json at the repository root lists the end-to-end
// and per-layer tables below; a test keeps the two in step.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every workload reports untraced, each
// defined per workload (README.md): work_ms is the time of the
// workload's unit of work and ops_per_s its throughput. Both, and
// setup_s, are host-normalized (hostref.go), because the host's speed
// shifts by a third for minutes at a time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"work_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
}

// perLayer are the metrics every traced run reports. Span-derived ones
// read 0 on a workload that does not call the layer; the probes run on
// every workload.
var perLayer = []metricSpec{
	{"experiments.scale-membench.s", "s", "lower"},
	{"experiments.locality.s", "s", "lower"},
	{"experiments.fig4.s", "s", "lower"},
	{"experiments.fig3a.s", "s", "lower"},
	{"experiments.fig3c.s", "s", "lower"},
	{"experiments.scale-ranks.s", "s", "lower"},
	{"experiments.fig7.s", "s", "lower"},
	{"experiments.resilience-daly.s", "s", "lower"},
	{"experiments.other.s", "s", "lower"},
	{"simmpi.events", "count", "lower"},
	{"simmpi.runs", "count", "lower"},
	{"simmpi.events_per_s", "1/s", "higher"},
	{"simmpi.ranks512.events_per_s", "1/s", "higher"},
	{"simmpi.ranks4096.events_per_s", "1/s", "higher"},
	{"simmpi.ranks10240.events_per_s", "1/s", "higher"},
	{"simmpi.pingpong.ns_per_op", "ns", "lower"},
	{"simmpi.ring512.events_per_s", "1/s", "higher"},
	{"network.send_ns", "ns", "lower"},
	{"network.send_incast_ns", "ns", "lower"},
	{"cache.accessrun_hit_ns_per_line", "ns", "lower"},
	{"cache.accessrun_miss_ns_per_line", "ns", "lower"},
	{"membench.scale.s", "s", "lower"},
	{"membench.locality.s", "s", "lower"},
	{"membench.large256.s", "s", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.open_s", "s", "lower"},
	{"experiments.cachekey_us", "us", "lower"},
	{"report.encode_us", "us", "lower"},
	{"runner.decode_us", "us", "lower"},
	{"service.handler_lru_us", "us", "lower"},
	{"service.handler_disk_us", "us", "lower"},
	{"service.runs_total", "count", "lower"},
	{"service.cache_hits", "count", "higher"},
	{"store.disk_hits", "count", "higher"},
	{"store.quarantined_total", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// detailed are the workload-specific metrics written to the result file
// and the printed table, under the names README.md uses; the end-to-end
// metrics above are drawn from them.
var detailed = []metricSpec{
	{"error_ratio", "ratio", "lower"},
	{"suite_s", "s", "lower"},
	{"ranks_s", "s", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"disk_p50_ms", "ms", "lower"},
	{"disk_p99_ms", "ms", "lower"},
	{"lru_p50_ms", "ms", "lower"},
	{"lru_p99_ms", "ms", "lower"},
	{"lru_rps", "1/s", "higher"},
	{"disk_restart_ms", "ms", "lower"},
	{"setup_raw_s", "s", "lower"},
	{"host_ref_ms", "ms", "lower"},
}

// specOf returns the declaration of a metric name; an undeclared name
// is a bug in the benchmark.
func specOf(name string) metricSpec {
	for _, table := range [][]metricSpec{endToEnd, perLayer, detailed} {
		for _, s := range table {
			if s.Name == name {
				return s
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// hostParameters describes the machine and build, so that numbers from
// different hardware are never compared silently.
func hostParameters() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"GOMAXPROCS": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     gitCommit("."),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of the git checkout at root by reading .git
// directly, or returns "unknown" outside a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
