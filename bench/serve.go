package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"montblanc/internal/service"
	"montblanc/internal/simmpi"
	"montblanc/internal/stats"
	"montblanc/internal/xrand"
)

// serveKeys is K, the number of distinct requests of serve-tiers: 200
// cold samples leave 20 beyond p90.
const serveKeys = 200

// serveClients is the closed loop's client count. One: with more, the
// clients and the service contend for the host's few cores, and the run
// measures the scheduler more than the service.
const serveClients = 1

// traffic is the closed-loop client side of serve-tiers.
type traffic struct {
	hc      *http.Client
	clients int
	seeds   []uint64 // one fig3c request seed per key
	bodies  [][]byte // the cold replies: the reference for every later reply
}

// serveTiers drives an in-process service with a durable cache
// directory through a closed loop of serveClients clients, in three phases:
// cold (K distinct fig3c requests, each one simulation and one store
// Put), disk (warm restarts on the same directory that request every
// key once, all disk hits) and lru (the same keys many times on one
// server, all LRU hits).
func serveTiers(r *run) error {
	clients := serveClients
	t := &traffic{
		hc:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		clients: clients,
		seeds:   requestSeeds(r.seed, serveKeys),
		bodies:  make([][]byte, serveKeys),
	}
	defer t.hc.CloseIdleConnections()
	r.params["keys"] = serveKeys
	r.params["clients"] = clients
	r.params["max_concurrent"] = runtime.NumCPU()
	r.params["request"] = "fig3c quick, seed drawn from the workload seed"

	// Set-up: a fresh cache directory, a server on it and one warm-up
	// request (seed 0, never a cold key). The last one serves the cold
	// phase.
	var dir string
	var srv *server
	for start, i := time.Now(), 0; r.settingUp(start, i); i++ {
		if srv != nil {
			srv.close(t.hc)
		}
		err := r.setup(func() error {
			dir = filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
			var err error
			if srv, err = startServer(r.tr, dir); err != nil {
				return err
			}
			status, h, body, err := srv.post(t.hc, 0)
			r.check(replyFailure(status, h, body, err, nil, tierMiss))
			return nil
		})
		if err != nil {
			return err
		}
	}
	start := time.Now()

	// Cold: every key once; the reply bodies become the reference.
	before, m0 := simmpi.Engine(), srv.metrics(r, t.hc)
	phase := r.tr.begin("serve.cold", 0, 0)
	cold := t.loop(r, func(j int) failure {
		id := r.tr.begin("service.run", phase, j+1)
		status, h, body, err := srv.post(t.hc, t.seeds[j])
		r.tr.end(id)
		t.bodies[j] = body
		return replyFailure(status, h, body, err, nil, tierMiss)
	})
	r.tr.end(phase)
	ev, runs, wall := engineDelta(before, simmpi.Engine())
	m1 := srv.metrics(r, t.hc)
	r.check(checkCount(m1.RunsTotal-m0.RunsTotal, serveKeys))
	srv.close(t.hc)

	// The rest of the run is split between the disk and LRU phases.
	budget := time.Duration((r.seconds - time.Since(start).Seconds()) / 2 * float64(time.Second))

	// Disk: warm restarts, each requesting every key once, each after a
	// reference chunk.
	var disk, restarts, normRestarts []float64
	var restart serviceMetrics
	phase = r.tr.begin("serve.disk", 0, 0)
	for t0, n := time.Now(), 0; n < minUnits || time.Since(t0) < budget; n++ {
		chunk := r.ref.sample(1)
		s0 := time.Now()
		srv, err := startServer(r.tr, dir)
		if err != nil {
			return err
		}
		disk = append(disk, t.sweep(r, r.tr, srv, phase)...)
		ms := float64(time.Since(s0)) / float64(time.Millisecond)
		restarts = append(restarts, ms)
		normRestarts = append(normRestarts, normalize(ms, chunk, 1))
		restart = srv.metrics(r, t.hc)
		r.check(checkCount(restart.RunsTotal, 0))
		r.check(checkCount(restart.CacheHits, serveKeys))
		r.check(checkCount(restart.Store.DiskHits, serveKeys))
		srv.close(t.hc)
	}
	r.tr.end(phase)

	// LRU: one more restart whose first sweep promotes every key from
	// disk, then whole sweeps served from memory, each after a reference
	// chunk. Traced runs alternate untraced and traced sweeps to measure
	// the tracing overhead.
	srv, err := startServer(r.tr, dir)
	if err != nil {
		return err
	}
	defer srv.close(t.hc)
	t.sweep(r, nil, srv, 0)
	var lru, lruTraced, lruRates, normRates []float64
	sweeps := 0
	for t0 := time.Now(); sweeps < minUnits || time.Since(t0) < budget; sweeps++ {
		chunk := r.ref.sample(1)
		if r.tr != nil && sweeps%2 == 1 {
			phase := r.tr.begin("serve.lru", 0, 0)
			lruTraced = append(lruTraced, t.sweep(r, r.tr, srv, phase)...)
			r.tr.end(phase)
			continue
		}
		s0 := time.Now()
		lru = append(lru, t.sweep(r, nil, srv, 0)...)
		secs := time.Since(s0).Seconds()
		lruRates = append(lruRates, serveKeys/secs)
		normRates = append(normRates, serveKeys/normalize(secs, chunk, 1))
	}
	final := srv.metrics(r, t.hc)
	r.check(checkCount(final.RunsTotal, 0))
	r.check(checkCount(final.CacheHits, uint64(serveKeys*(1+sweeps))))
	r.check(checkCount(final.Store.DiskHits, serveKeys))

	r.params["disk_restarts"] = len(restarts)
	r.params["lru_sweeps"] = sweeps
	r.dist("cold_p50_ms", cold, 1)
	r.set("cold_p90_ms", stats.Quantile(cold, 0.90))
	r.dist("disk_p50_ms", disk, 1)
	r.set("disk_p99_ms", stats.Quantile(disk, 0.99))
	r.dist("lru_p50_ms", lru, 1)
	r.set("lru_p99_ms", stats.Quantile(lru, 0.99))
	r.dist("lru_rps", lruRates, 1)
	r.dist("disk_restart_ms", restarts, 1)
	// Medians of units normalized one by one: a unit lasts tens of
	// milliseconds, and a collection or a slow file read can double one.
	r.dist("work_ms", normRestarts, 1)
	r.dist("ops_per_s", normRates, 1)
	if r.tr != nil {
		r.set("simmpi.events", float64(ev))
		r.set("simmpi.runs", float64(runs))
		r.set("simmpi.events_per_s", float64(ev)/wall)
		if st, found := m1.Experiments["fig3c"]; found && st.Runs > 0 {
			r.set("experiments.fig3c.s", st.TotalSeconds/float64(st.Runs))
		}
		r.set("service.runs_total", float64(m1.RunsTotal-m0.RunsTotal))
		r.set("service.cache_hits", float64(restart.CacheHits))
		r.set("store.disk_hits", float64(restart.Store.DiskHits))
		r.set("store.quarantined_total", float64(final.Store.QuarantinedTotal))
		r.set("trace.overhead_pct", overheadPct(lru, lruTraced))
	}
	return nil
}

// requestSeeds draws n distinct non-zero request seeds from the
// workload seed.
func requestSeeds(seed uint64, n int) []uint64 {
	rng := xrand.New(seed)
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := 1 + rng.Uint64()%(1<<40)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sweep requests every key once and checks each reply is a cache hit
// byte-equal to the cold reply. It returns the latencies in ms.
func (t *traffic) sweep(r *run, tr *tracer, srv *server, phase int) []float64 {
	return t.loop(r, func(j int) failure {
		id := tr.begin("service.run", phase, j+1)
		status, h, body, err := srv.post(t.hc, t.seeds[j])
		tr.end(id)
		return replyFailure(status, h, body, err, t.bodies[j], tierHit)
	})
}

// loop runs one job per key from t.clients concurrent callers, each
// waiting for its reply before taking the next job. It checks every
// job's failure class on r and returns the latencies in ms, in key
// order.
func (t *traffic) loop(r *run, do func(job int) failure) []float64 {
	jobs := len(t.seeds)
	lat := make([]float64, jobs)
	fails := make([]failure, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < t.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < jobs; j = int(next.Add(1)) - 1 {
				start := time.Now()
				fails[j] = do(j)
				lat[j] = float64(time.Since(start)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		r.check(f)
	}
	return lat
}

// replyFailure classifies a reply, counting a transport error as a
// failed status.
func replyFailure(status int, h http.Header, body []byte, err error, want []byte, tier string) failure {
	if err != nil {
		return failStatus
	}
	return checkReply(status, h, body, want, tier)
}

// server is one service instance behind a loopback HTTP server.
type server struct {
	ts *httptest.Server
}

// startServer builds a service on the cache directory — opening its
// store — and serves it on a loopback port.
func startServer(tr *tracer, dir string) (*server, error) {
	id := tr.begin("service.New", 0, 0)
	svc, err := service.New(service.Config{CacheDir: dir, MaxConcurrent: runtime.NumCPU()})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &server{ts: httptest.NewServer(svc.Handler())}, nil
}

// close stops the server once its requests have finished and drops the
// client's connections to it.
func (s *server) close(hc *http.Client) {
	s.ts.Close()
	hc.CloseIdleConnections()
}

// post sends one fig3c quick request with the given seed.
func (s *server) post(hc *http.Client, seed uint64) (int, http.Header, []byte, error) {
	req := fmt.Sprintf(`{"experiments":["fig3c"],"options":{"quick":true,"seed":%d}}`, seed)
	resp, err := hc.Post(s.ts.URL+"/v1/run", "application/json", strings.NewReader(req))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// serviceMetrics is the part of the /metrics document the benchmark
// checks.
type serviceMetrics struct {
	RunsTotal   uint64 `json:"runs_total"`
	CacheHits   uint64 `json:"cache_hits"`
	Experiments map[string]struct {
		Runs         uint64  `json:"runs"`
		TotalSeconds float64 `json:"total_seconds"`
	} `json:"experiments"`
	Store struct {
		DiskHits         uint64 `json:"disk_hits"`
		QuarantinedTotal uint64 `json:"quarantined_total"`
	} `json:"store"`
}

// metrics fetches /metrics, counting a failed fetch or any quarantined
// store entry as a failure.
func (s *server) metrics(r *run, hc *http.Client) serviceMetrics {
	var m serviceMetrics
	resp, err := hc.Get(s.ts.URL + "/metrics")
	if err != nil {
		r.check(failStatus)
		return m
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&m) != nil {
		r.check(failStatus)
		return m
	}
	r.check(checkCount(m.Store.QuarantinedTotal, 0))
	return m
}
