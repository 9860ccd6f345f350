package service

import (
	"sync"
	"sync/atomic"
	"time"

	"montblanc/internal/runner"
	"montblanc/internal/service/store"
	"montblanc/internal/simmpi"
)

// metrics is the service's observability surface, rendered by
// /metrics as one JSON document. Counters are monotonic over the
// process lifetime; gauges are instantaneous. The field names are a
// stable contract (SERVICE.md) — CI and later sharding work key off
// them.
type metrics struct {
	requests      atomic.Uint64 // /v1/run requests accepted for processing
	requestErrors atomic.Uint64 // /v1/run requests answered with an error status
	cacheHits     atomic.Uint64 // experiment executions served from the LRU
	cacheMisses   atomic.Uint64 // executions that had to consult the flight group
	runs          atomic.Uint64 // underlying simulations actually executed
	rejected      atomic.Uint64 // waits rejected 503: queued past the timeout on a full semaphore
	inflightReqs  atomic.Int64  // /v1/run handlers currently running

	// start anchors uptime_seconds. Wall clock is fine here: uptime is
	// operator observability, not simulation state.
	start time.Time

	mu     sync.Mutex
	perExp map[string]*expStats
}

// expStats aggregates per-experiment simulation latency. Only real
// executions are recorded: cache hits cost no simulation time and
// would drown the signal.
type expStats struct {
	Runs         uint64  `json:"runs"`
	Errors       uint64  `json:"errors"`
	TotalSeconds float64 `json:"total_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	LastSeconds  float64 `json:"last_seconds"`
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), perExp: make(map[string]*expStats)}
}

// recordRun accounts one executed simulation.
func (m *metrics) recordRun(res runner.Result) {
	m.runs.Add(1)
	secs := res.Duration.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.perExp[res.ID]
	if st == nil {
		st = &expStats{}
		m.perExp[res.ID] = st
	}
	st.Runs++
	if res.Err != nil {
		st.Errors++
	}
	st.TotalSeconds += secs
	if secs > st.MaxSeconds {
		st.MaxSeconds = secs
	}
	st.LastSeconds = secs
}

// wireMetrics is the /metrics JSON document.
type wireMetrics struct {
	RequestsTotal  uint64 `json:"requests_total"`
	RequestErrors  uint64 `json:"request_errors"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheEntries   int    `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`
	RunsTotal      uint64 `json:"runs_total"`
	// RejectedTotal counts saturation rejections: request deadlines
	// that expired while the simulation was still queued for a slot
	// (503 "saturated" + Retry-After). A new field on the stable
	// /metrics contract — existing names never change.
	RejectedTotal    uint64              `json:"rejected_total"`
	InflightRequests int64               `json:"inflight_requests"`
	InflightRuns     int                 `json:"inflight_runs"`
	Experiments      map[string]expStats `json:"experiments"`
	// Sim is the process-wide DES scheduler aggregate: runs, committed
	// events, wall seconds and committed events per second.
	Sim simmpi.EngineStats `json:"sim"`
	// UptimeSeconds is wall-clock seconds since the server was built —
	// together with the store section it distinguishes a warm restart
	// (low uptime, high disk_hits) from a long-lived hot cache.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Store is the durable-tier section, present only when the server
	// runs with -cache-dir. Its field names are part of the stable
	// contract too (SERVICE.md).
	Store *store.Stats `json:"store,omitempty"`
}

// snapshot renders the current state. The per-experiment map is
// deep-copied under the lock so encoding races nothing. storeStats is
// nil when the durable tier is disabled.
func (m *metrics) snapshot(cacheEntries int, cacheEvictions uint64, inflightRuns int, storeStats *store.Stats) wireMetrics {
	m.mu.Lock()
	exps := make(map[string]expStats, len(m.perExp))
	for id, st := range m.perExp {
		exps[id] = *st
	}
	m.mu.Unlock()
	return wireMetrics{
		RequestsTotal:    m.requests.Load(),
		RequestErrors:    m.requestErrors.Load(),
		CacheHits:        m.cacheHits.Load(),
		CacheMisses:      m.cacheMisses.Load(),
		CacheEntries:     cacheEntries,
		CacheEvictions:   cacheEvictions,
		RunsTotal:        m.runs.Load(),
		RejectedTotal:    m.rejected.Load(),
		InflightRequests: m.inflightReqs.Load(),
		InflightRuns:     inflightRuns,
		Experiments:      exps,
		Sim:              simmpi.Engine(),
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Store:            storeStats,
	}
}
