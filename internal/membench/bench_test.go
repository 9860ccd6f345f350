package membench

import (
	"sync"
	"testing"
	"time"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
	"montblanc/internal/units"
)

// largeCfg is the hundreds-of-MB regime of the Mont-Blanc follow-up
// studies (arXiv:1508.05075, arXiv:2007.04868): a 256 MiB stride-1
// sweep, far beyond every cache level in the registry.
var largeCfg = Config{ArrayBytes: 256 * units.MiB, Width: cpu.W64}

// newLargeRunner builds the large-array runner: ThunderX2 (the deepest
// hierarchy in the registry) behind a contiguous page mapping, so the
// TLB model is live and translation really runs per page.
func newLargeRunner() (*Runner, error) {
	return NewRunner(platform.MustLookup("ThunderX2"), mem.NewContiguousMapper(0))
}

// largeScalarBaseline times the element-at-a-time reference
// (RunScalar) once per process on the large-array configuration: the
// benchmark framework re-invokes the benchmark at every b.N escalation,
// and the baseline must not be re-paid each time.
var largeScalarBaseline = sync.OnceValues(func() (time.Duration, error) {
	r, err := newLargeRunner()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = r.RunScalar(largeCfg)
	return time.Since(start), err
})

// BenchmarkMembenchLargeArray pins the batched engine's headline win: a
// DRAM-resident 256 MiB sweep measured against the scalar reference
// (target >= 5x). The allocs/run metric is the per-Run overhead of a
// reused Runner, zero since a Run allocates nothing once its scratch is
// primed: the certified pass replays the rest, so the per-executed-pass
// <= 1 contract is enforced by TestMembenchSteadyPassAllocsPerOp on a
// config the certificate refuses, not derived from this figure.
func BenchmarkMembenchLargeArray(b *testing.B) {
	scalar, err := largeScalarBaseline()
	if err != nil {
		b.Fatal(err)
	}
	r, err := newLargeRunner()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(largeCfg); err != nil { // prime runner scratch
		b.Fatal(err)
	}
	allocsPerRun := testing.AllocsPerRun(2, func() {
		if _, err := r.Run(largeCfg); err != nil {
			b.Error(err)
		}
	})
	var res Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = r.Run(largeCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(scalar.Seconds()/perOp.Seconds(), "speedup-vs-scalar")
	b.ReportMetric(allocsPerRun, "allocs/run")
	b.ReportMetric(res.Bandwidth/1e9, "model-GB/s")
	b.ReportMetric(float64(res.SimulatedPasses), "simulated-passes")
}
