// Package service implements `montblanc serve`: a long-running
// HTTP/JSON API that answers experiment requests from a
// content-addressed result cache.
//
// The determinism suite (see internal/experiments) proves every
// experiment is a pure function of its Options plus the resolved
// platform specs, so one execution's Result can be replayed verbatim
// for every later request with the same content hash
// (experiments.CacheKey). The server keeps a bounded LRU of stored
// Results in front of the existing internal/runner pool, with
// singleflight-style deduplication so N concurrent identical requests
// cost one simulation.
//
// Endpoints, schemas and the cache-key recipe are documented in
// SERVICE.md at the repository root.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"montblanc/internal/experiments"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service/store"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// MaxConcurrent bounds simulations executing at once across all
	// requests (<= 0 means GOMAXPROCS). Requests needing more work
	// queue on the limit rather than being rejected; the per-request
	// timeout bounds how long they wait.
	MaxConcurrent int
	// CacheSize bounds the in-memory result cache in entries (0 means
	// 1024; negative is a configuration error New rejects).
	CacheSize int
	// CacheDir enables the durable result tier: a disk-backed,
	// content-addressed store under the in-memory LRU, so a restarted
	// (even SIGKILLed) server serves prior results from request one.
	// "" disables persistence.
	CacheDir string
	// CachePersistMaxBytes bounds the durable tier's payload bytes on
	// disk; oldest entries are pruned first. <= 0 means unlimited.
	CachePersistMaxBytes int64
	// RequestTimeout bounds one /v1/run request (0 means 60s). A
	// timed-out request gets a structured 504; the underlying
	// simulation keeps running and lands in the cache for the retry.
	RequestTimeout time.Duration
	// ShutdownGrace bounds draining on shutdown (0 means 30s).
	ShutdownGrace time.Duration
	// Match resolves request experiment arguments (IDs, globs, "all");
	// nil means experiments.Match. Injection point for tests.
	Match func(args ...string) ([]experiments.Experiment, error)
	// List enumerates the experiments /v1/experiments advertises; nil
	// means experiments.All.
	List func() []experiments.Experiment
	// Logf receives service lifecycle lines; nil means silent.
	Logf func(format string, args ...interface{})
}

// Server is the simulation service. Create with New, expose with
// Handler (tests and embedding) or Serve (listener plus graceful
// shutdown).
type Server struct {
	cfg    Config
	match  func(args ...string) ([]experiments.Experiment, error)
	list   func() []experiments.Experiment
	cache  *resultCache
	store  *store.Store // durable tier under the LRU; nil without CacheDir
	flight *flightGroup
	sem    chan struct{} // counting semaphore: one token per running simulation
	met    *metrics
	mux    *http.ServeMux

	// baseCtx is the lifetime of detached simulation leaders; Serve
	// cancels it after the HTTP side has drained, aborting queued
	// leaders nobody is waiting for. wg tracks those leaders so
	// shutdown can wait for the ones already simulating.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// errShuttingDown marks work refused because the server is draining.
var errShuttingDown = errors.New("shutting down")

// errSaturated marks a request that timed out while its simulation was
// still queued behind -max-concurrent busy slots: the service is
// overloaded (503 + Retry-After), not slow (504). The leader keeps its
// queue position either way — the work still lands in the cache.
var errSaturated = errors.New("all simulation slots busy")

// New builds a Server from the config. It fails on an invalid config
// (negative CacheSize) or when the durable tier's directory cannot be
// prepared.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("service: CacheSize must be >= 0, got %d", cfg.CacheSize)
	}
	mc := cfg.MaxConcurrent
	if mc <= 0 {
		mc = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:    cfg,
		match:  cfg.Match,
		list:   cfg.List,
		cache:  newResultCache(cfg.CacheSize),
		flight: newFlightGroup(),
		sem:    make(chan struct{}, mc),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
	}
	if cfg.CacheDir != "" {
		st, err := store.Open(store.OS{}, cfg.CacheDir, cfg.CachePersistMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("service: opening result store: %w", err)
		}
		s.store = st
	}
	if s.match == nil {
		s.match = experiments.Match
	}
	if s.list == nil {
		s.list = experiments.All
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) requestTimeout() time.Duration {
	if s.cfg.RequestTimeout > 0 {
		return s.cfg.RequestTimeout
	}
	return 60 * time.Second
}

func (s *Server) shutdownGrace() time.Duration {
	if s.cfg.ShutdownGrace > 0 {
		return s.cfg.ShutdownGrace
	}
	return 30 * time.Second
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve runs the service on ln until ctx is cancelled, then drains
// gracefully: the listener stops accepting, in-flight HTTP requests
// complete (their simulations run to the end), detached leaders that
// have not started simulating are aborted, and ones mid-simulation are
// awaited — all bounded by ShutdownGrace. Returns nil on a clean
// drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.logf("montblanc serve: listening on http://%s", ln.Addr())

	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}

	s.logf("montblanc serve: shutting down, draining in-flight work")
	drainCtx, cancel := context.WithTimeout(context.Background(), s.shutdownGrace())
	defer cancel()
	// Order matters: drain the HTTP side first so every request that
	// made it in completes (handlers block on their simulations), THEN
	// abort the detached leaders nobody is waiting for.
	err := srv.Shutdown(drainCtx)
	s.stop()
	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-drainCtx.Done():
		err = errors.Join(err, fmt.Errorf(
			"service: %d simulations still running at grace deadline", s.flight.inflight()))
	}
	<-errc // always http.ErrServerClosed once Shutdown has run
	return err
}

// --- wire types ---------------------------------------------------

// RunRequest is the /v1/run request body: handleRun decodes it and
// `montblanc call` encodes it.
type RunRequest struct {
	// Experiments selects what to run: exact IDs, path.Match globs
	// ("fig3*") or the keyword "all" — the same grammar as the CLI.
	Experiments []string `json:"experiments"`
	// Options are normalized on arrival (experiments.Options.Normalize):
	// sim_workers is clamped and, as it cannot change output, left out
	// of the cache key; a fault schedule changes output and is keyed.
	Options experiments.Options `json:"options"`
	// Specs are request-scoped inline machine specs: resolvable (and
	// able to shadow registered names) for this request only, never
	// registered globally.
	Specs []platform.Spec `json:"specs,omitempty"`
}

// optionCodes maps an experiments.OptionError's field to its error
// code; the other option errors are "bad_options".
var optionCodes = map[string]string{"fault": "bad_fault", "specs": "bad_spec"}

// wireError is the structured error envelope every non-2xx response
// carries.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	s.met.requestErrors.Add(1)
	var we wireError
	we.Error.Code = code
	we.Error.Message = fmt.Sprintf(format, args...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = report.EncodeJSON(w, we) // response-writer errors have no recovery path
}

// --- handlers -----------------------------------------------------

// maxRequestBytes bounds a /v1/run body; inline platform specs are the
// only bulky field and a few MiB covers hundreds of machines.
const maxRequestBytes = 4 << 20

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	s.met.inflightReqs.Add(1)
	defer s.met.inflightReqs.Add(-1)

	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "decoding request: %v", err)
		return
	}
	if len(req.Experiments) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			`"experiments" must name at least one experiment ID, glob or "all"`)
		return
	}

	// Bad options are a 400 naming the field before anything runs, not
	// a per-experiment failure buried in results.
	req.Options.Specs = req.Specs
	opts, err := req.Options.Normalize()
	if err != nil {
		code := "bad_options"
		var oe *experiments.OptionError
		if errors.As(err, &oe) && optionCodes[oe.Option] != "" {
			code = optionCodes[oe.Option]
		}
		s.writeError(w, http.StatusBadRequest, code, "%v", err)
		return
	}
	es, err := s.match(req.Experiments...)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "unknown_experiment", "%v", err)
		return
	}
	keys := make([]string, len(es))
	for i, e := range es {
		if keys[i], err = experiments.CacheKey(e.ID, opts); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_options", "%v", err)
			return
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout())
	defer cancel()

	// Dispatch the experiments as weighted tasks on the runner pool —
	// heaviest first (LPT), one slot per experiment — with each task
	// resolving through cache → flight group → semaphore. The pool
	// tops out at the simulation concurrency limit; the cross-request
	// bound is the semaphore.
	out := make([]runner.Result, len(es))
	hit := make([]bool, len(es))
	tasks := make([]runner.Task, len(es))
	for i := range es {
		i := i
		tasks[i] = runner.Task{
			ID:     es[i].ID,
			Title:  es[i].Title,
			Weight: es[i].Cost,
			Run: func(io.Writer) error {
				res, fromCache, err := s.resolve(ctx, es[i], opts, keys[i])
				if err != nil {
					return err
				}
				out[i], hit[i] = res, fromCache
				return nil
			},
		}
	}
	pool := runner.Pool{Workers: cap(s.sem)}
	for _, tr := range pool.Run(tasks) {
		if tr.Err == nil {
			continue
		}
		switch {
		case errors.Is(tr.Err, errSaturated):
			secs := int(s.requestTimeout() / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.writeError(w, http.StatusServiceUnavailable, "saturated",
				"experiment %s waited %s for a simulation slot (all %d busy); it stays queued and lands in the cache — retry later",
				tr.ID, s.requestTimeout(), cap(s.sem))
		case errors.Is(tr.Err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout, "timeout",
				"experiment %s did not finish within %s (it keeps running; retry to hit the cache)",
				tr.ID, s.requestTimeout())
		case errors.Is(tr.Err, context.Canceled), errors.Is(tr.Err, errShuttingDown):
			s.writeError(w, http.StatusServiceUnavailable, "unavailable", "experiment %s: %v", tr.ID, tr.Err)
		default:
			s.writeError(w, http.StatusInternalServerError, "internal", "experiment %s: %v", tr.ID, tr.Err)
		}
		return
	}

	// The body is the established wire form — the same bytes
	// `montblanc -json` emits — so a cache hit is byte-identical to
	// the cold run. Cache observability rides in a header, never the
	// body.
	hits := 0
	for _, h := range hit {
		if h {
			hits++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Montblanc-Cache", fmt.Sprintf("hits=%d misses=%d", hits, len(es)-hits))
	_ = report.EncodeJSON(w, out)
}

// resolve produces the result for one (experiment, options) pair:
// straight from the cache, by joining an in-flight identical
// computation, or by becoming the leader that runs it. Only the wait
// is bound to the request context — the computation itself is
// detached, so a timed-out requester never cancels work other waiters
// (or the cache) still want.
func (s *Server) resolve(ctx context.Context, e experiments.Experiment, o experiments.Options, key string) (res runner.Result, fromCache bool, err error) {
	if res, ok := s.cache.get(key); ok {
		s.met.cacheHits.Add(1)
		return res, true, nil
	}
	// Second tier: the durable store. A disk hit is still a cache hit
	// (the simulation is not re-run — the point of persistence); it is
	// promoted into the LRU so subsequent lookups stay in memory.
	if res, ok := s.diskGet(key); ok {
		s.met.cacheHits.Add(1)
		s.cache.add(key, res)
		return res, true, nil
	}
	s.met.cacheMisses.Add(1)
	c, leader := s.flight.claim(key)
	if leader {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.flight.complete(key, c, s.execute(e, o, key, c))
		}()
	}
	select {
	case <-c.done:
		if c.res.Err != nil && errors.Is(c.res.Err, errShuttingDown) {
			return runner.Result{}, false, errShuttingDown
		}
		return c.res, false, nil
	case <-ctx.Done():
		// A deadline that expired while the leader was still queued for
		// a simulation slot is saturation, not slowness: the semaphore
		// was full past the whole request timeout. The leader keeps its
		// queue position — the work still lands in the cache.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) && !c.started.Load() {
			s.met.rejected.Add(1)
			return runner.Result{}, false, errSaturated
		}
		return runner.Result{}, false, ctx.Err()
	}
}

// execute runs one simulation under the concurrency limit and stores
// the result. It is the only place experiment code runs in the
// service.
func (s *Server) execute(e experiments.Experiment, o experiments.Options, key string, c *flightCall) runner.Result {
	// Double-check the cache: this leader may have claimed the key in
	// the window after a previous leader stored the result but before
	// its flight retired — rerunning would be wasted work (never a
	// wrong answer; the one-simulation guarantee is the product).
	if res, ok := s.cache.get(key); ok {
		c.started.Store(true) // replayed, never queued: hits are not saturation
		return res
	}
	select {
	case s.sem <- struct{}{}:
		c.started.Store(true)
	case <-s.baseCtx.Done():
		// Not cached: the refusal is transient, the value under this
		// key is not.
		return runner.Result{ID: e.ID, Title: e.Title, Err: errShuttingDown}
	}
	defer func() { <-s.sem }()
	var buf bytes.Buffer
	start := time.Now()
	err := e.Run(&buf, o)
	res := runner.Result{
		ID:       e.ID,
		Title:    e.Title,
		Output:   buf.String(),
		Duration: time.Since(start),
		Err:      err,
	}
	s.met.recordRun(res)
	s.cache.add(key, res)
	s.diskPut(key, res)
	return res
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	es := s.list()
	entries := make([]entry, 0, len(es))
	for _, e := range es {
		entries = append(entries, entry{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, entries)
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, platform.Specs())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, evictions := s.cache.stats()
	var ss *store.Stats
	if s.store != nil {
		v := s.store.Stats()
		ss = &v
	}
	w.Header().Set("Content-Type", "application/json")
	_ = report.EncodeJSON(w, s.met.snapshot(entries, evictions, s.flight.inflight(), ss))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
