package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/simmpi"
)

// fakeMatch builds a Match function over a fixed experiment set (exact
// IDs only — the tests don't need globs).
func fakeMatch(es ...experiments.Experiment) func(args ...string) ([]experiments.Experiment, error) {
	return func(args ...string) ([]experiments.Experiment, error) {
		var out []experiments.Experiment
		for _, a := range args {
			found := false
			for _, e := range es {
				if e.ID == a {
					out = append(out, e)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown experiment %q", a)
			}
		}
		return out, nil
	}
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v interface{}) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// mustNew builds a Server or fails the test: every config in this file
// is valid by construction.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCacheHitByteIdentical is the core contract: the second identical
// request is answered from the cache with exactly the bytes of the
// cold run, and /metrics shows one underlying simulation.
func TestCacheHitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	exp := experiments.Experiment{
		ID:    "toy",
		Title: "a deterministic toy",
		Run: func(w io.Writer, o experiments.Options) error {
			runs.Add(1)
			fmt.Fprintf(w, "quick=%v seed=%d\n", o.Quick, o.Seed)
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"experiments":["toy"],"options":{"quick":true,"seed":3}}`
	resp1, cold := postRun(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Montblanc-Cache"); got != "hits=0 misses=1" {
		t.Errorf("cold run cache header %q", got)
	}
	resp2, warm := postRun(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d", resp2.StatusCode)
	}
	if cold != warm {
		t.Errorf("cache hit not byte-identical:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := resp2.Header.Get("X-Montblanc-Cache"); got != "hits=1 misses=0" {
		t.Errorf("warm run cache header %q", got)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("simulation ran %d times, want 1", n)
	}

	var m wireMetrics
	getJSON(t, ts, "/metrics", &m)
	if m.RunsTotal != 1 || m.CacheHits != 1 || m.CacheMisses != 1 || m.RequestsTotal != 2 {
		t.Errorf("metrics = %+v, want 1 run / 1 hit / 1 miss / 2 requests", m)
	}
	st, ok := m.Experiments["toy"]
	if !ok || st.Runs != 1 {
		t.Errorf("per-experiment stats missing or wrong: %+v", m.Experiments)
	}

	// Different options are a different content address.
	resp3, _ := postRun(t, ts, `{"experiments":["toy"],"options":{"quick":true,"seed":4}}`)
	if got := resp3.Header.Get("X-Montblanc-Cache"); got != "hits=0 misses=1" {
		t.Errorf("different-seed request cache header %q", got)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("simulation ran %d times after a different-seed request, want 2", n)
	}
}

// TestConcurrentIdenticalRequestsRunOnce is the singleflight contract
// under -race: N concurrent identical requests cost exactly one
// simulation and all see the same bytes.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	const n = 32
	var runs atomic.Int64
	gate := make(chan struct{})
	exp := experiments.Experiment{
		ID:    "slow",
		Title: "gated",
		Run: func(w io.Writer, o experiments.Options) error {
			runs.Add(1)
			<-gate
			fmt.Fprintln(w, "done")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp), MaxConcurrent: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := make([]string, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json",
				strings.NewReader(`{"experiments":["slow"],"options":{}}`))
			if err != nil {
				statuses[i] = -1
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i], statuses[i] = string(b), resp.StatusCode
		}(i)
	}
	// Release the gate once the leader is inside Run; the remaining 31
	// requests must all be waiting on its flight, not running.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, statuses[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("simulation ran %d times for %d concurrent requests, want 1", got, n)
	}
}

// TestRequestTimeout: a too-slow experiment yields a structured 504
// and the simulation still completes and lands in the cache for the
// retry.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	exp := experiments.Experiment{
		ID: "glacial",
		Run: func(w io.Writer, o experiments.Options) error {
			<-release
			fmt.Fprintln(w, "eventually")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp), RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRun(t, ts, `{"experiments":["glacial"],"options":{}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", resp.StatusCode, body)
	}
	var we wireError
	if err := json.Unmarshal([]byte(body), &we); err != nil || we.Error.Code != "timeout" {
		t.Fatalf("structured error missing: %s", body)
	}

	// The detached leader finishes once released, and the retry is a
	// cache hit — no second simulation.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postRun(t, ts, `{"experiments":["glacial"],"options":{}}`)
		if resp.StatusCode == http.StatusOK {
			if got := resp.Header.Get("X-Montblanc-Cache"); got != "hits=1 misses=0" {
				t.Errorf("retry cache header %q, want a pure hit", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retry never hit the cache after the leader was released")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdown: cancelling Serve's context drains the in-flight
// request to a complete 200 response before the server exits.
func TestGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	exp := experiments.Experiment{
		ID: "draining",
		Run: func(w io.Writer, o experiments.Options) error {
			close(started)
			<-gate
			fmt.Fprintln(w, "drained fine")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp), ShutdownGrace: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	type reply struct {
		status int
		body   string
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/run", "application/json",
			strings.NewReader(`{"experiments":["draining"],"options":{}}`))
		if err != nil {
			replies <- reply{status: -1, body: err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		replies <- reply{status: resp.StatusCode, body: string(b)}
	}()

	<-started // the request is in flight, mid-simulation
	cancel()  // begin graceful shutdown while it runs
	// Give Shutdown a moment to stop the listener, then let the
	// simulation finish.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	r := <-replies
	if r.status != http.StatusOK || !strings.Contains(r.body, "drained fine") {
		t.Errorf("in-flight request got status %d body %q, want a complete 200", r.status, r.body)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v, want a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestStructuredErrors(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", `{`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"experimints":["x"]}`, http.StatusBadRequest, "bad_request"},
		{"empty selection", `{"experiments":[],"options":{}}`, http.StatusBadRequest, "bad_request"},
		{"unknown experiment", `{"experiments":["nope"],"options":{}}`, http.StatusBadRequest, "unknown_experiment"},
		{"unknown platform", `{"experiments":["table1"],"options":{"quick":true,"platforms":["NoSuchMachine"]}}`, http.StatusBadRequest, "bad_options"},
		{"invalid inline spec", `{"experiments":["table1"],"options":{"quick":true},"specs":[{"name":"Bad","isa":"armv7","watts":-1}]}`, http.StatusBadRequest, "bad_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.status, body)
			}
			var we wireError
			if err := json.Unmarshal([]byte(body), &we); err != nil {
				t.Fatalf("unstructured error body: %s", body)
			}
			if we.Error.Code != tc.code {
				t.Errorf("code %q, want %q (message: %s)", we.Error.Code, tc.code, we.Error.Message)
			}
		})
	}

	// Method and path mismatches are still JSON-free stdlib responses;
	// just pin the status codes.
	resp, err := ts.Client().Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// TestRealExperimentEndToEnd drives the default Match/registry path:
// a real quick experiment served twice, byte-identical, with inline
// request-scoped specs resolvable in the same request.
func TestRealExperimentEndToEnd(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"experiments":["table1"],"options":{"quick":true}}`
	resp1, cold := postRun(t, ts, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp1.StatusCode, cold)
	}
	_, warm := postRun(t, ts, body)
	if cold != warm {
		t.Error("real experiment cache hit not byte-identical")
	}

	// The response carries the established wire form.
	var results []struct {
		ID      string  `json:"id"`
		Title   string  `json:"title"`
		Seconds float64 `json:"seconds"`
		Output  string  `json:"output"`
	}
	if err := json.Unmarshal([]byte(cold), &results); err != nil {
		t.Fatalf("response not the runner wire form: %v", err)
	}
	if len(results) != 1 || results[0].ID != "table1" || results[0].Output == "" {
		t.Errorf("unexpected results: %+v", results)
	}
}

// TestInlineSpecRequestScoped: a request carrying its own machine can
// sweep it, and the machine is gone (from the registry and from
// /v1/platforms) afterwards.
func TestInlineSpecRequestScoped(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var specs []json.RawMessage
	getJSON(t, ts, "/v1/platforms", &specs)
	before := len(specs)

	// Borrow a real spec, rename it, and inline it.
	var reg []map[string]interface{}
	getJSON(t, ts, "/v1/platforms", &reg)
	var snowball map[string]interface{}
	for _, sp := range reg {
		if sp["name"] == "Snowball" {
			snowball = sp
		}
	}
	if snowball == nil {
		t.Fatal("Snowball not in /v1/platforms")
	}
	snowball["name"] = "Ephemeral"
	delete(snowball, "power")
	delete(snowball, "power_name")
	inline, _ := json.Marshal(snowball)

	body := fmt.Sprintf(
		`{"experiments":["sweep-specs"],"options":{"quick":true,"platforms":["Snowball","Ephemeral"]},"specs":[%s]}`,
		inline)
	resp, out := postRun(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(out, "Ephemeral") {
		t.Error("inline machine missing from sweep output")
	}

	getJSON(t, ts, "/v1/platforms", &specs)
	if len(specs) != before {
		t.Errorf("inline spec leaked: %d platforms, was %d", len(specs), before)
	}
}

func TestListEndpointsAndHealth(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var entries []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	getJSON(t, ts, "/v1/experiments", &entries)
	if len(entries) == 0 {
		t.Error("/v1/experiments empty")
	}
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("healthz = %+v", health)
	}
}

// --- removed and panicking inputs ----------------------------------

// sim_workers selected a scheduler that no longer exists. The request
// schema rejects unknown fields, so a client still sending it gets a
// 400 bad_request naming the field, and nothing runs.
func TestSimWorkersOptionRejected(t *testing.T) {
	var runs atomic.Int64
	exp := experiments.Experiment{
		ID: "toy",
		Run: func(w io.Writer, o experiments.Options) error {
			runs.Add(1)
			fmt.Fprintln(w, "done")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, v := range []string{"0", "4"} {
		resp, body := postRun(t, ts, `{"experiments":["toy"],"options":{"sim_workers":`+v+`}}`)
		var we wireError
		if err := json.Unmarshal([]byte(body), &we); err != nil {
			t.Fatalf("sim_workers=%s: body %q: %v", v, body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || we.Error.Code != "bad_request" ||
			!strings.Contains(we.Error.Message, "sim_workers") {
			t.Errorf("sim_workers=%s: status %d body %s, want 400 bad_request naming sim_workers",
				v, resp.StatusCode, body)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("experiment ran %d times for rejected requests", n)
	}
}

// A panicking experiment fails its requests with a 500, never the
// server. Its result is not cached, so an identical request runs it
// again; the panics count as runs and as per-experiment errors.
func TestPanickingExperimentIsolated(t *testing.T) {
	boom := experiments.Experiment{
		ID: "boom",
		Run: func(w io.Writer, o experiments.Options) error {
			panic("kaboom")
		},
	}
	fine := experiments.Experiment{
		ID: "fine",
		Run: func(w io.Writer, o experiments.Options) error {
			fmt.Fprintln(w, "ok")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(boom, fine)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postRun(t, ts, `{"experiments":["boom"],"options":{"quick":true}}`)
		var we wireError
		if err := json.Unmarshal([]byte(body), &we); err != nil {
			t.Fatalf("request %d: body %q: %v", i, body, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || we.Error.Code != "internal" ||
			!strings.Contains(we.Error.Message, "boom") || !strings.Contains(we.Error.Message, "kaboom") {
			t.Errorf("request %d: status %d body %s, want 500 internal naming boom and the panic",
				i, resp.StatusCode, body)
		}
	}
	var m wireMetrics
	getJSON(t, ts, "/metrics", &m)
	if m.RunsTotal != 2 || m.CacheEntries != 0 || m.Experiments["boom"].Errors != 2 {
		t.Errorf("metrics: runs_total %d, cache_entries %d, boom errors %d; want 2, 0, 2",
			m.RunsTotal, m.CacheEntries, m.Experiments["boom"].Errors)
	}
	if resp, body := postRun(t, ts, `{"experiments":["fine"]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("after the panics: status %d body %s, want 200", resp.StatusCode, body)
	}
}

// /metrics carries the DES scheduler aggregate under the "sim" key —
// an additive extension of the stable field contract.
func TestMetricsSimSection(t *testing.T) {
	s := mustNew(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var m map[string]json.RawMessage
	getJSON(t, ts, "/metrics", &m)
	raw, ok := m["sim"]
	if !ok {
		t.Fatalf("/metrics has no sim section: %v", m)
	}
	var sim simmpi.EngineStats
	if err := json.Unmarshal(raw, &sim); err != nil {
		t.Fatalf("sim section does not decode as EngineStats: %v", err)
	}
}

// --- saturation vs timeout ------------------------------------------

// TestSaturationVsTimeout pins the overload contract: a deadline that
// expires while the simulation is RUNNING is a 504 "timeout"; one that
// expires while the simulation is still QUEUED behind a full
// -max-concurrent semaphore is a 503 "saturated" with a Retry-After
// header, counted once in rejected_total. Either way the leader keeps
// its queue position and the work lands in the cache for the retry.
func TestSaturationVsTimeout(t *testing.T) {
	release := make(chan struct{})
	hog := experiments.Experiment{
		ID: "hog",
		Run: func(w io.Writer, o experiments.Options) error {
			<-release
			fmt.Fprintln(w, "hogged")
			return nil
		},
	}
	starved := experiments.Experiment{
		ID: "starved",
		Run: func(w io.Writer, o experiments.Options) error {
			fmt.Fprintln(w, "fast")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(hog, starved), MaxConcurrent: 1,
		RequestTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Order matters: the hog request occupies the single slot first, so
	// the starved one spends its whole deadline queued.
	cases := []struct {
		name           string
		body           string
		wantStatus     int
		wantCode       string
		wantRetryAfter string
	}{
		{"running past the deadline is a timeout",
			`{"experiments":["hog"],"options":{}}`,
			http.StatusGatewayTimeout, "timeout", ""},
		{"queued past the deadline is saturation",
			`{"experiments":["starved"],"options":{}}`,
			http.StatusServiceUnavailable, "saturated", "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var we wireError
			if err := json.Unmarshal([]byte(body), &we); err != nil || we.Error.Code != tc.wantCode {
				t.Fatalf("error code %q (decode err %v), want %q; body: %s",
					we.Error.Code, err, tc.wantCode, body)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.wantRetryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.wantRetryAfter)
			}
		})
	}

	var m wireMetrics
	getJSON(t, ts, "/metrics", &m)
	if m.RejectedTotal != 1 {
		t.Errorf("rejected_total = %d, want 1 (a timeout is not a rejection)", m.RejectedTotal)
	}

	// Both leaders kept their queue positions: release the hog and both
	// results land in the cache, so the retries are pure hits with no
	// second simulation.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for _, body := range []string{cases[0].body, cases[1].body} {
		for {
			resp, _ := postRun(t, ts, body)
			if resp.StatusCode == http.StatusOK &&
				resp.Header.Get("X-Montblanc-Cache") == "hits=1 misses=0" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("retry of %s never became a cache hit", body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	getJSON(t, ts, "/metrics", &m)
	if m.RunsTotal != 2 {
		t.Errorf("runs_total = %d, want 2 (retries replay, never rerun)", m.RunsTotal)
	}
}

// --- fault schedules on the wire ------------------------------------

// Hostile fault schedules are a structured 400 naming the field before
// any simulation runs. JSON cannot carry NaN — the decoder rejects it
// at the syntax level — so the representable hostile inputs are
// negative rates, inverted windows and speedup factors; a literal NaN
// is covered as a decode error.
func TestBadFaultRejected(t *testing.T) {
	exp := experiments.Experiment{
		ID: "toy",
		Run: func(w io.Writer, o experiments.Options) error {
			fmt.Fprintln(w, "ok")
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		fault    string
		wantCode string
		wantMsg  string
	}{
		{"negative mtbf", `{"mtbf_seconds":-1}`, "bad_fault", "mtbf_seconds"},
		{"negative downtime", `{"downtime_seconds":-3}`, "bad_fault", "downtime_seconds"},
		{"negative checkpoint interval", `{"checkpoint_interval_seconds":-5}`,
			"bad_fault", "checkpoint_interval_seconds"},
		{"negative event node", `{"events":[{"node":-1,"time":5}]}`, "bad_fault", "negative node"},
		{"negative event time", `{"events":[{"node":0,"time":-2}]}`, "bad_fault", "events[0]"},
		{"empty link name", `{"links":[{"link":"","start":1,"end":5}]}`, "bad_fault", "empty link name"},
		{"inverted link window", `{"links":[{"link":"node0->sw","start":5,"end":1,"bandwidth_factor":2}]}`,
			"bad_fault", "links[0]"},
		{"speedup link", `{"links":[{"link":"node0->sw","start":1,"end":5,"bandwidth_factor":0.5}]}`,
			"bad_fault", "links[0]"},
		{"literal NaN is a decode error", `{"mtbf_seconds":NaN}`, "bad_request", "decoding"},
		{"unknown fault field", `{"mtbf_secnods":120}`, "bad_request", "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"experiments":["toy"],"options":{"fault":` + tc.fault + `}}`
			resp, out := postRun(t, ts, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, out)
			}
			var we wireError
			if err := json.Unmarshal([]byte(out), &we); err != nil {
				t.Fatalf("unstructured error body: %s", out)
			}
			if we.Error.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", we.Error.Code, tc.wantCode, we.Error.Message)
			}
			if !strings.Contains(we.Error.Message, tc.wantMsg) {
				t.Errorf("message %q does not name the problem %q", we.Error.Message, tc.wantMsg)
			}
		})
	}

	var m wireMetrics
	getJSON(t, ts, "/metrics", &m)
	if m.RunsTotal != 0 {
		t.Errorf("hostile schedules reached the simulator: runs_total = %d", m.RunsTotal)
	}
}

// TestFaultIsCacheKeyMaterial: a fault schedule changes experiment
// output, so it must be part of the content address — a fault-injected
// request never replays a failure-free entry, and repeating the same
// schedule is a pure hit.
func TestFaultIsCacheKeyMaterial(t *testing.T) {
	var runs atomic.Int64
	exp := experiments.Experiment{
		ID: "toy",
		Run: func(w io.Writer, o experiments.Options) error {
			runs.Add(1)
			if o.Fault != nil {
				fmt.Fprintf(w, "mtbf=%g\n", o.Fault.MTBFSeconds)
			} else {
				fmt.Fprintln(w, "failure-free")
			}
			return nil
		},
	}
	s := mustNew(t, Config{Match: fakeMatch(exp)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clean := `{"experiments":["toy"],"options":{}}`
	faulted := `{"experiments":["toy"],"options":{"fault":{"seed":7,"mtbf_seconds":120,"horizon_seconds":600}}}`

	if resp, _ := postRun(t, ts, clean); resp.Header.Get("X-Montblanc-Cache") != "hits=0 misses=1" {
		t.Fatal("clean run was not a cold miss")
	}
	respF, coldF := postRun(t, ts, faulted)
	if respF.Header.Get("X-Montblanc-Cache") != "hits=0 misses=1" {
		t.Error("faulted request replayed the failure-free entry")
	}
	if !strings.Contains(coldF, "mtbf=120") {
		t.Errorf("fault did not reach the experiment: %s", coldF)
	}
	respF2, warmF := postRun(t, ts, faulted)
	if respF2.Header.Get("X-Montblanc-Cache") != "hits=1 misses=0" {
		t.Error("repeated schedule was not a pure hit")
	}
	if coldF != warmF {
		t.Error("faulted cache hit not byte-identical")
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("simulation ran %d times, want 2 (clean + faulted)", n)
	}
}
