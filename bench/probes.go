package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"montblanc/internal/cpu"
	"montblanc/internal/experiments"
	"montblanc/internal/mem"
	"montblanc/internal/membench"
	"montblanc/internal/network"
	"montblanc/internal/platform"
	"montblanc/internal/report"
	"montblanc/internal/runner"
	"montblanc/internal/service"
	"montblanc/internal/service/store"
	"montblanc/internal/simmpi"
	"montblanc/internal/units"
	"montblanc/internal/xrand"
)

// probeLayers measures each layer alone through its public functions,
// with the shapes of the repository's Go benchmarks. Traced runs of
// every workload end with these probes, so their numbers compare across
// workloads. Each probe repeats its call and reports the median.
func probeLayers(r *run) error {
	for _, p := range []func(*run) error{
		probeSimmpi, probeNetwork, probeCache, probeMembench, probeService,
	} {
		if err := p(r); err != nil {
			return err
		}
	}
	return nil
}

// timeEach calls f n times, each call inside a root span named after
// the layer call, and returns each call's seconds.
func (r *run) timeEach(name string, n int, f func() error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		id := r.tr.begin(name, 0, 0)
		start := time.Now()
		err := f()
		out[i] = time.Since(start).Seconds()
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeSimmpi(r *run) error {
	// Ping-pong (BenchmarkSimMPIPingPong): 1000 round trips of 4 ops.
	const rounds = 1000
	net := network.Star(2)
	pingpong, err := r.timeEach("simmpi.Run pingpong", 30, func() error {
		net.Reset()
		_, err := simmpi.Run(simmpi.Config{Ranks: 2, Net: net}, func(p *simmpi.Proc) error {
			peer := 1 - p.Rank()
			for i := 0; i < rounds; i++ {
				if p.Rank() == 0 {
					if err := p.Send(peer, 1, 1024); err != nil {
						return err
					}
					if err := p.Recv(peer, 2); err != nil {
						return err
					}
					continue
				}
				if err := p.Recv(peer, 1); err != nil {
					return err
				}
				if err := p.Send(peer, 2, 1024); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	r.dist("simmpi.pingpong.ns_per_op", pingpong, 1e9/(4*rounds))

	// Ring plus allreduce at 512 ranks (BenchmarkSimMPIRankScaling).
	ring := network.Tree(256, 32)
	var events []float64
	secs, err := r.timeEach("simmpi.Run ring512", 5, func() error {
		ring.Reset()
		rep, err := simmpi.Run(simmpi.Config{Ranks: 512, Net: ring, RanksPerNode: 2}, func(p *simmpi.Proc) error {
			next, prev := (p.Rank()+1)%p.Size(), (p.Rank()+p.Size()-1)%p.Size()
			for it := 0; it < 20; it++ {
				if err := p.Send(next, 1+it%16, 2048); err != nil {
					return err
				}
				if err := p.Recv(prev, 1+it%16); err != nil {
					return err
				}
				if err := p.Allreduce(1024); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			events = append(events, float64(rep.Sched.Events))
		}
		return err
	})
	if err != nil {
		return err
	}
	rates := make([]float64, len(secs))
	for i := range secs {
		rates[i] = events[i] / secs[i]
	}
	r.dist("simmpi.ring512.events_per_s", rates, 1)
	return nil
}

func probeNetwork(r *run) error {
	// Send on an idle 5120-node tree: one message per simulated second,
	// so every link has drained, between seeded node pairs.
	const sends = 20000
	tree := network.Tree(5120, 32)
	rng := xrand.New(r.seed)
	pairs := make([][2]int, sends)
	for i := range pairs {
		src := rng.Intn(5120)
		pairs[i] = [2]int{src, (src + 1 + rng.Intn(5119)) % 5120}
	}
	idle, err := r.timeEach("network.Send idle", 7, func() error {
		tree.Reset()
		for i, p := range pairs {
			if _, err := tree.Send(float64(i), p[0], p[1], 4096); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("network.send_ns", idle, 1e9/sends)

	// Fan-in on a 32-node star: 31 senders to node 0 at once.
	const rounds = 500
	star := network.Star(32)
	incast, err := r.timeEach("network.Send incast", 7, func() error {
		star.Reset()
		for round := 0; round < rounds; round++ {
			for src := 1; src < 32; src++ {
				if _, err := star.Send(float64(round), src, 0, 16<<10); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("network.send_incast_ns", incast, 1e9/(rounds*31))
	return nil
}

func probeCache(r *run) error {
	// Hits: a 16 KiB stride-1 sweep that stays in the Snowball's L1.
	snow := platform.MustLookup("Snowball")
	h, err := snow.NewHierarchy(nil)
	if err != nil {
		return err
	}
	const small, sweeps = 16 * units.KiB, 200
	h.AccessRun(0, 8, small/8, false) // fill
	hit, err := r.timeEach("cache.AccessRun hit", 7, func() error {
		for i := 0; i < sweeps; i++ {
			h.AccessRun(0, 8, small/8, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("cache.accessrun_hit_ns_per_line", hit, 1e9/float64(sweeps*small/snow.L1().LineSize))

	// Misses: a 64 MiB stride-1 sweep on ThunderX2 through the TLB.
	tx2 := platform.MustLookup("ThunderX2")
	h, err = tx2.NewHierarchy(mem.NewContiguousMapper(0))
	if err != nil {
		return err
	}
	const large = 64 * units.MiB
	miss, err := r.timeEach("cache.AccessRun miss", 3, func() error {
		h.AccessRun(0, 8, large/8, false)
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("cache.accessrun_miss_ns_per_line", miss, 1e9/float64(large/tx2.L1().LineSize))
	return nil
}

func probeMembench(r *run) error {
	// The 12 Runner.Run calls of the quick scale-membench experiment.
	scale, err := r.timeEach("membench.Runner.Run scale", 3, func() error {
		for _, name := range []string{"Snowball", "ThunderX2"} {
			run, err := membench.NewRunner(platform.MustLookup(name), mem.NewContiguousMapper(0))
			if err != nil {
				return err
			}
			for _, size := range []int{4 * units.MiB, 16 * units.MiB} {
				for _, stride := range []int{1, 8, 64} {
					if _, err := run.Run(membench.Config{ArrayBytes: size, StrideElems: stride, Width: cpu.W64}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("membench.scale.s", scale, 1)

	// The two LocalityProfile calls of the quick locality experiment.
	locality, err := r.timeEach("membench.LocalityProfile", 3, func() error {
		for _, name := range []string{"Snowball", "XeonX5550"} {
			sizes := []int{16 * units.KiB, 256 * units.KiB, 2 * units.MiB}
			if _, err := membench.LocalityProfile(platform.MustLookup(name), sizes, []int{1, 2, 4, 8, 16}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("membench.locality.s", locality, 1)

	// One warm 256 MiB ThunderX2 run (BenchmarkMembenchLargeArray).
	run, err := membench.NewRunner(platform.MustLookup("ThunderX2"), mem.NewContiguousMapper(0))
	if err != nil {
		return err
	}
	cfg := membench.Config{ArrayBytes: 256 * units.MiB, Width: cpu.W64}
	if _, err := run.Run(cfg); err != nil {
		return err
	}
	large, err := r.timeEach("membench.Runner.Run large256", 1, func() error {
		_, err := run.Run(cfg)
		return err
	})
	if err != nil {
		return err
	}
	r.dist("membench.large256.s", large, 1)
	return nil
}

// probeService times the service-side layers on one fig3c quick wire
// result: the store on the real filesystem, cache-key hashing, JSON
// encoding and decoding, and the handler with no socket.
func probeService(r *run) error {
	e, found := experiments.Find("fig3c")
	if !found {
		return fmt.Errorf("experiment fig3c is not registered")
	}
	opts := experiments.Options{Quick: true}
	var out bytes.Buffer
	if err := e.Run(&out, opts); err != nil {
		return err
	}
	res := runner.Result{ID: e.ID, Title: e.Title, Output: out.String(), Duration: time.Millisecond}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}

	// Store: K puts (fsync and rename each), gets of every key, and
	// opens of the directory holding K entries.
	dir := filepath.Join(r.dir, "probe-store")
	st, err := store.Open(store.OS{}, dir, 0)
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	i := 0
	put, err := r.timeEach("store.Put", serveKeys, func() error { i++; return st.Put(key(i), blob) })
	if err != nil {
		return err
	}
	r.dist("store.put_us", put, 1e6)
	i = 0
	get, err := r.timeEach("store.Get", 4*serveKeys, func() error {
		i++
		got, _ := st.Get(key(1 + i%serveKeys)) // a miss returns nil: a mismatch
		r.check(checkOutput(nil, got, blob))
		return nil
	})
	if err != nil {
		return err
	}
	r.dist("store.get_us", get, 1e6)
	open, err := r.timeEach("store.Open", 9, func() error { _, err := store.Open(store.OS{}, dir, 0); return err })
	if err != nil {
		return err
	}
	r.dist("store.open_s", open, 1)

	cachekey, err := r.timeEach("experiments.CacheKey", 200, func() error { _, err := experiments.CacheKey(e.ID, opts); return err })
	if err != nil {
		return err
	}
	r.dist("experiments.cachekey_us", cachekey, 1e6)
	var enc bytes.Buffer
	encode, err := r.timeEach("report.EncodeJSON", 200, func() error { enc.Reset(); return report.EncodeJSON(&enc, []runner.Result{res}) })
	if err != nil {
		return err
	}
	r.dist("report.encode_us", encode, 1e6)
	decode, err := r.timeEach("runner.Result.UnmarshalJSON", 200, func() error { var got runner.Result; return json.Unmarshal(blob, &got) })
	if err != nil {
		return err
	}
	r.dist("runner.decode_us", decode, 1e6)

	// Handler: one cold request fills the LRU and the disk tier, then
	// LRU hits on that server and disk hits on fresh servers.
	hdir := filepath.Join(r.dir, "probe-handler")
	serve := func(svc *service.Server, tier string) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/run",
			strings.NewReader(`{"experiments":["fig3c"],"options":{"quick":true}}`))
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		r.check(checkReply(rec.Code, rec.Header(), rec.Body.Bytes(), nil, tier))
		return nil
	}
	svc, err := service.New(service.Config{CacheDir: hdir})
	if err != nil {
		return err
	}
	serve(svc, tierMiss)
	lru, err := r.timeEach("service.Handler lru", 200, func() error { return serve(svc, tierHit) })
	if err != nil {
		return err
	}
	r.dist("service.handler_lru_us", lru, 1e6)
	var disk []float64
	for n := 0; n < 30; n++ {
		fresh, err := service.New(service.Config{CacheDir: hdir})
		if err != nil {
			return err
		}
		d, err := r.timeEach("service.Handler disk", 1, func() error { return serve(fresh, tierHit) })
		if err != nil {
			return err
		}
		disk = append(disk, d...)
	}
	r.dist("service.handler_disk_us", disk, 1e6)
	return nil
}
