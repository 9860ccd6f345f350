package membench

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"montblanc/internal/cpu"
	"montblanc/internal/mem"
	"montblanc/internal/platform"
)

// fuzzMaxLines bounds the cache lines a fuzzed spec may ask for across
// its levels (ThunderX2, the largest built-in, has about 530k). It is a
// resource bound, not a validity rule: a hierarchy costs memory and
// AppendState time in proportion to its lines, and the fuzzer would
// otherwise spend its budget allocating. Production builds no
// hierarchy from a user spec; every experiment that builds one names a
// built-in platform.
const fuzzMaxLines = 1 << 20

// fuzzMaxTLB bounds the TLB entries likewise: a lookup scans every
// entry and the TLB's AppendState is quadratic in them.
const fuzzMaxTLB = 1 << 10

// fuzzConfig derives a tiny measurement from two fuzzed numbers.
func fuzzConfig(size uint16, stride uint8) Config {
	return Config{
		ArrayBytes:    16 + int(size),
		StrideElems:   1 + int(stride%64),
		Width:         cpu.Widths()[int(stride/64)%3],
		WarmPasses:    1 + int(size%3),
		MeasurePasses: 1 + int(size/3%3),
	}
}

// FuzzSpecMembench drives a platform spec from JSON into the cache
// engine: decode, Validate, Build, then two tiny measurements in a row
// on one contiguous-mapped Runner. Whatever hierarchy the spec
// describes, the runs must not panic, must give a finite, positive
// bandwidth, and must equal the element-at-a-time reference exactly,
// AppendState included, which fuzzes the steady-pass certificate, the
// settling forecast and the set-major route over arbitrary hierarchies, and
// the bounds cpu.Model.Validate puts on the spec's own core. The seed
// corpus is every built-in spec.
func FuzzSpecMembench(f *testing.F) {
	for i, name := range platform.Names() {
		spec, ok := platform.LookupSpec(name)
		if !ok {
			f.Fatalf("built-in %s has no spec", name)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint16(4096*i+1000), uint8(i), uint16(60000-1000*i), uint8(64+7*i))
	}
	f.Fuzz(func(t *testing.T, data []byte, size1 uint16, stride1 uint8, size2 uint16, stride2 uint8) {
		var spec platform.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			return
		}
		p, err := spec.Build()
		if err != nil {
			t.Fatalf("Validate accepted a spec that Build rejects: %v", err)
		}
		lines := 0
		for _, c := range p.Caches {
			lines += c.Size / c.LineSize
		}
		if lines > fuzzMaxLines || p.TLBEntries > fuzzMaxTLB {
			t.Skipf("%d lines, %d TLB entries: above the harness's resource bound", lines, p.TLBEntries)
		}
		// probe repeats batched's history, so each of its results is
		// the one compareRuns pins to the reference.
		var runners [3]*Runner
		for i := range runners {
			if runners[i], err = NewRunner(p, mem.NewContiguousMapper(0)); err != nil {
				t.Fatalf("a built platform has no hierarchy: %v", err)
			}
		}
		batched, scalar, probe := runners[0], runners[1], runners[2]
		for i, cfg := range []Config{fuzzConfig(size1, stride1), fuzzConfig(size2, stride2)} {
			ctx := fmt.Sprintf("%s config %d %+v", spec.Name, i, cfg)
			compareRuns(t, batched, scalar, cfg, ctx)
			res, err := probe.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if bw := res.Bandwidth; !(bw > 0) || math.IsInf(bw, 0) {
				t.Fatalf("%s: bandwidth %v", ctx, bw)
			}
		}
	})
}
