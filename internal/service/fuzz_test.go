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
	"montblanc/internal/runner"
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
