package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"montblanc/internal/runner"
)

// --- serve flag validation ------------------------------------------

func TestServeCacheEntriesValidation(t *testing.T) {
	// Negative and explicit zero are usage errors: a typo must not
	// silently become the 1024-entry default.
	for _, v := range []string{"-3", "0"} {
		code, _, errOut := runCLI(t, "serve", "-cache-entries", v)
		if code != 2 || !strings.Contains(errOut, "-cache-entries must be > 0") {
			t.Errorf("-cache-entries %s: exit %d stderr %q, want 2 + message", v, code, errOut)
		}
	}
	// A valid value passes flag validation; the run then fails at the
	// unusable listen address (exit 1), proving the flag was accepted.
	if code, _, errOut := runCLI(t, "serve", "-cache-entries", "5",
		"-addr", "256.256.256.256:99999"); code != 1 {
		t.Errorf("valid -cache-entries rejected: exit %d stderr %q", code, errOut)
	}
	// Unset keeps the default: same probe, no flag.
	if code, _, errOut := runCLI(t, "serve", "-addr", "256.256.256.256:99999"); code != 1 {
		t.Errorf("unset -cache-entries: exit %d stderr %q, want 1 (listen failure)", code, errOut)
	}
	if code, _, errOut := runCLI(t, "serve", "-cache-persist-max-bytes", "-1"); code != 2 ||
		!strings.Contains(errOut, "-cache-persist-max-bytes") {
		t.Errorf("negative persist bound: exit %d stderr %q, want 2 + message", code, errOut)
	}
}

func TestServeUnusableCacheDir(t *testing.T) {
	// A regular file where the store directory should go: service.New
	// fails to open the store — a startup failure (1), not usage (2).
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "serve", "-cache-dir", f, "-addr", "127.0.0.1:0")
	if code != 1 || !strings.Contains(errOut, "result store") {
		t.Errorf("unusable -cache-dir: exit %d stderr %q, want 1 + store error", code, errOut)
	}
}

// --- call mode ------------------------------------------------------

func TestCallUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "call"); code != 2 {
		t.Errorf("call without experiments: exit %d, want 2", code)
	}
	if code, _, errOut := runCLI(t, "call", "-attempts", "0", "fig1"); code != 2 ||
		!strings.Contains(errOut, "-attempts") {
		t.Errorf("call -attempts 0: exit %d stderr %q, want 2 + message", code, errOut)
	}
	if code, _, _ := runCLI(t, "call", "-definitely-not-a-flag"); code != 2 {
		t.Error("unknown call flag accepted")
	}
	code, _, errOut := runCLI(t, "call", "-h")
	if code != 0 || !strings.Contains(errOut, "usage: montblanc call") {
		t.Errorf("call -h: exit %d stderr %q", code, errOut)
	}
	// Experiment options before the verb would be dropped unsent (call)
	// or unused (serve): both are usage errors naming the flags.
	for _, args := range [][]string{
		{"-quick", "-fault-mtbf", "40", "-sim-workers", "4", "call", "-url", "http://127.0.0.1:1", "-attempts", "1", "resilience-sweep"},
		{"-quick", "serve", "-addr", "256.256.256.256:99999"},
	} {
		code, _, errOut := runCLI(t, args...)
		if code != 2 || !strings.Contains(errOut, "-quick") {
			t.Errorf("%q: exit %d stderr %q, want 2 naming -quick", args, code, errOut)
		}
	}
}

// TestCallRoundTrip drives `montblanc call` against a stub server:
// the response body lands on stdout verbatim and the request carries
// the flags as wire options.
func TestCallRoundTrip(t *testing.T) {
	var gotBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotBody.Store(string(b))
		w.Write([]byte(`[{"id":"fig1","title":"t","seconds":0.1,"output":"o"}]`))
	}))
	defer ts.Close()
	code, out, errOut := runCLI(t, "call", "-url", ts.URL, "-quick", "-seed", "5",
		"-fault-mtbf", "40", "-fault-downtime", "2", "-checkpoint-interval", "1.5", "fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if out != `[{"id":"fig1","title":"t","seconds":0.1,"output":"o"}]` {
		t.Errorf("stdout = %q, want the server body verbatim", out)
	}
	var req struct {
		Experiments []string `json:"experiments"`
		Options     struct {
			Quick bool   `json:"quick"`
			Seed  uint64 `json:"seed"`
			Fault struct {
				MTBF       float64 `json:"mtbf_seconds"`
				Downtime   float64 `json:"downtime_seconds"`
				Checkpoint float64 `json:"checkpoint_interval_seconds"`
			} `json:"fault"`
		} `json:"options"`
	}
	if err := json.Unmarshal([]byte(gotBody.Load().(string)), &req); err != nil {
		t.Fatalf("request body: %v", err)
	}
	if len(req.Experiments) != 1 || req.Experiments[0] != "fig1" ||
		!req.Options.Quick || req.Options.Seed != 5 {
		t.Errorf("request = %+v, flags did not reach the wire", req)
	}
	if f := req.Options.Fault; f.MTBF != 40 || f.Downtime != 2 || f.Checkpoint != 1.5 {
		t.Errorf("options.fault = %+v, want mtbf 40, downtime 2, checkpoint interval 1.5", f)
	}
	// The response bytes must round-trip as results too.
	var results []runner.Result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Errorf("stdout is not a result array: %v", err)
	}
}

// TestCallRetriesSaturated: a 503 with Retry-After is retried (with a
// note on stderr) and the retry's success lands on stdout. Tiny
// backoff flags keep the test fast; -retry-seed pins the jitter.
func TestCallRetriesSaturated(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"saturated","message":"busy"}}`))
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()
	code, out, errOut := runCLI(t, "call", "-url", ts.URL,
		"-backoff", "1ms", "-backoff-cap", "2ms", "-retry-seed", "7", "fig1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if out != `[]` || calls.Load() != 2 {
		t.Errorf("out %q after %d calls, want [] after 2", out, calls.Load())
	}
	if !strings.Contains(errOut, "retrying in") || !strings.Contains(errOut, "saturated") {
		t.Errorf("stderr %q lacks the retry note", errOut)
	}
}

// TestCallPermanentErrorExitCode: a 4xx is surfaced once, no retries,
// exit 1.
func TestCallPermanentErrorExitCode(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"unknown_experiment","message":"no such id"}}`))
	}))
	defer ts.Close()
	code, _, errOut := runCLI(t, "call", "-url", ts.URL, "nope")
	if code != 1 || calls.Load() != 1 {
		t.Errorf("exit %d after %d calls, want 1 after exactly 1", code, calls.Load())
	}
	if !strings.Contains(errOut, "unknown_experiment") {
		t.Errorf("stderr %q lacks the structured error", errOut)
	}
}
