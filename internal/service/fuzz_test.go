package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"montblanc/internal/experiments"
	"montblanc/internal/platform"
	"montblanc/internal/power"
	"montblanc/internal/runner"
	"montblanc/internal/units"
)

// FuzzRunRequest drives /v1/run bodies through the handler. The
// experiments are fakes that echo their options, so no simulation runs.
// No body may panic the handler; every non-200 response carries the
// error envelope with a code; every 200 body is the runner wire form;
// and the same body sent twice gets the same status, and for a 200 the
// same bytes, replayed from the cache.
func FuzzRunRequest(f *testing.F) {
	snowball, ok := platform.LookupSpec("Snowball")
	if !ok {
		f.Fatal("builtin Snowball missing")
	}
	shadow, err := json.Marshal(snowball)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"experiments":["toy","fails"],"options":{"quick":true,"seed":3}}`,
		`{"experiments":["toy"],"options":{"sim_workers":4}}`,
		`{"experiments":["toy"],"options":{"fault":{"mtbf_seconds":NaN}}}`,
		`{"experiments":["toy"],"options":{"platforms":["Snowball"]},"specs":[` + string(shadow) + `]}`,
		`{"experiments":["toy"],"options":{"platforms":["NoSuchMachine"]}}`,
		`{"experiments":[],"options":{}}`,
	} {
		f.Add([]byte(body))
	}
	toy := experiments.Experiment{
		ID:    "toy",
		Title: "echoes its options",
		Run: func(w io.Writer, o experiments.Options) error {
			_, err := fmt.Fprintf(w, "quick=%v seed=%d platforms=%v\n", o.Quick, o.Seed, o.Platforms)
			return err
		},
	}
	fails := experiments.Experiment{
		ID:    "fails",
		Title: "always fails",
		Run: func(io.Writer, experiments.Options) error {
			return errors.New("deterministic failure")
		},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Match: fakeMatch(toy, fails)})
		if err != nil {
			t.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			return rec
		}
		first, second := post(), post()
		if first.Code != second.Code {
			t.Fatalf("status %d, then %d for the same body", first.Code, second.Code)
		}
		if first.Code != http.StatusOK {
			var we wireError
			if err := json.Unmarshal(first.Body.Bytes(), &we); err != nil || we.Error.Code == "" {
				t.Fatalf("status %d without the error envelope: %q", first.Code, first.Body.Bytes())
			}
			return
		}
		var results []runner.Result
		if err := json.Unmarshal(first.Body.Bytes(), &results); err != nil {
			t.Fatalf("200 body is not []runner.Result: %v: %q", err, first.Body.Bytes())
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Fatalf("same body, different bytes:\n%q\n%q", first.Body.Bytes(), second.Body.Bytes())
		}
		if cache := second.Header().Get("X-Montblanc-Cache"); !strings.HasSuffix(cache, " misses=0") {
			t.Fatalf("second run was not a cache replay: %q", cache)
		}
	})
}

// FuzzInlineSpecRun posts a fuzzed platform spec as the inline spec of
// a /v1/run request, through the handler with the real registry, and
// runs on that machine alone the quick experiments that carry it
// through simmpi, the trace and the energy, resilience and sweep
// models. Every answer is a 200 whose outputs hold no NaN or Inf, or a
// 4xx with the error envelope; nothing panics (a panicking experiment
// answers 500). Seeds: every built-in spec; the two hostile specs
// TestSpecMagnitudeBounds keeps out; one spec per bounded field at each
// end of its PLATFORMS.md range, with the power fields it must not
// undercut moved along; and a machine whose flop rate makes
// resilience-sweep's segment count overflow an int.
func FuzzInlineSpecRun(f *testing.F) {
	for _, name := range platform.Names() {
		spec, _ := platform.LookupSpec(name)
		f.Add(mustMarshal(f, spec))
	}
	hostile := func(mutate func(*platform.Spec)) []byte {
		base, ok := platform.LookupSpec("Exynos5Dual")
		if !ok {
			f.Fatal("builtin Exynos5Dual missing")
		}
		var s platform.Spec // a deep copy, through the wire form
		if err := json.Unmarshal(mustMarshal(f, base), &s); err != nil {
			f.Fatal(err)
		}
		s.Name = "Hostile"
		mutate(&s)
		return mustMarshal(f, s)
	}
	f.Add(hostile(func(s *platform.Spec) { s.MemBandwidth = 1e-300 }))
	f.Add(hostile(func(s *platform.Spec) {
		s.Watts = 1e308
		s.Power.IdleWatts, s.Power.MemoryWatts, s.Power.CommWatts = 1e308, 1e308, 1e308
	}))
	const wMin, wMax = power.MinWatts, power.MaxWatts
	for _, bound := range []func(*platform.Spec){
		func(s *platform.Spec) { s.Cores = 1 },
		func(s *platform.Spec) { s.Cores = 4096 },
		func(s *platform.Spec) { s.RAMBytes = units.MiB },
		func(s *platform.Spec) { s.RAMBytes = 1 << 44 },
		func(s *platform.Spec) { s.MemBandwidth = 1e6 },
		func(s *platform.Spec) { s.MemBandwidth = 1e15 },
		func(s *platform.Spec) { s.MemLatencyCycles = 1 },
		func(s *platform.Spec) { s.MemLatencyCycles = 1e6 },
		func(s *platform.Spec) { s.TLBEntries = 0 },
		func(s *platform.Spec) { s.TLBEntries = 1 << 16 },
		func(s *platform.Spec) { s.TLBMissPenalty = 0 },
		func(s *platform.Spec) { s.TLBMissPenalty = 1e6 },
		func(s *platform.Spec) { s.Accel.PeakSPFlops = 0 },
		func(s *platform.Spec) { s.Accel.PeakSPFlops = 1e18 },
		func(s *platform.Spec) { s.Accel.PeakDPFlops = 0 },
		func(s *platform.Spec) { s.Accel.PeakDPFlops = 1e18 },
		func(s *platform.Spec) {
			s.Watts = wMin
			s.Power.IdleWatts, s.Power.MemoryWatts, s.Power.CommWatts = wMin, wMin, wMin
		},
		func(s *platform.Spec) { s.Watts = wMax },
		func(s *platform.Spec) { s.Power.IdleWatts = wMin },
		func(s *platform.Spec) {
			s.Watts = wMax
			s.Power.IdleWatts, s.Power.MemoryWatts, s.Power.CommWatts = wMax, wMax, wMax
		},
		func(s *platform.Spec) { s.Power.IdleWatts, s.Power.MemoryWatts = wMin, wMin },
		func(s *platform.Spec) { s.Power.MemoryWatts = wMax },
		func(s *platform.Spec) { s.Power.IdleWatts, s.Power.CommWatts = wMin, wMin },
		func(s *platform.Spec) { s.Power.CommWatts = wMax },
	} {
		f.Add(hostile(bound))
	}
	f.Add(hostile(func(s *platform.Spec) { s.CPU.FlopsPerCycleDP = 1e-300 }))
	f.Fuzz(func(t *testing.T, spec []byte) {
		var named struct {
			Name string `json:"name"`
		}
		_ = json.Unmarshal(spec, &named)
		body, err := json.Marshal(map[string]any{
			"experiments": []string{"sweep-matrix", "sweep-energy", "energy-phases", "resilience-sweep"},
			"options":     map[string]any{"quick": true, "platforms": []string{named.Name}},
			"specs":       []json.RawMessage{spec},
		})
		if err != nil {
			return // not one JSON value; FuzzRunRequest covers malformed bodies
		}
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			var results []struct {
				ID     string `json:"id"`
				Output string `json:"output"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
				t.Fatalf("200 body is not a result list: %v: %q", err, rec.Body.Bytes())
			}
			for _, r := range results {
				if strings.Contains(r.Output, "NaN") || strings.Contains(r.Output, "Inf") {
					t.Fatalf("%s printed a non-finite figure for spec %s:\n%s", r.ID, spec, r.Output)
				}
			}
		case rec.Code >= 400 && rec.Code < 500:
			var we wireError
			if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil || we.Error.Code == "" {
				t.Fatalf("status %d without the error envelope: %q", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("status %d for spec %s: %q", rec.Code, spec, rec.Body.Bytes())
		}
	})
}

func mustMarshal(f *testing.F, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
