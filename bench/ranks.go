package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"montblanc/internal/apps/specfem"
	"montblanc/internal/cluster"
	"montblanc/internal/experiments"
	"montblanc/internal/simmpi"
	"montblanc/internal/stats"
)

// The full-mode scale-ranks experiment is pinned three ways: the SHA-256
// of its rendered output, the SHA-256 of its speedup points when the
// traced run drives specfem directly, and the exact number of events
// the scheduler commits.
const (
	ranksOutputDigest = "65f8085af3e1dd7abf77b204c4733a0a40937b6e888afeb15cb80fb4f3b993a0"
	ranksPointsDigest = "69e7e6e5f02a545045309da24711a2d83c12d8f207eec4504933f4c2e2397b6f"
	ranksEvents       = 2912160
)

// The full scale-ranks shape (internal/experiments/rankscale.go): a
// 5120-node Tibidabo slice, SPECFEM3D halo exchange for 20 steps. The
// points digest fails if the two drift apart.
var (
	ranksNodes = 5120
	ranksCores = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 10240}
	ranksCfg   = specfem.ScalingConfig{Steps: 20}
)

// ranksRefChunks is how many reference chunks are timed before each
// curve: about a seventh of a curve's time.
const ranksRefChunks = 120

// ranks10k times the full-mode scale-ranks experiment: SPECFEM3D halo
// exchange from 32 to 10240 ranks on the default sequential scheduler.
// It is almost all simmpi and network work.
func ranks10k(r *run) error {
	e, found := experiments.Find("scale-ranks")
	if !found {
		return fmt.Errorf("experiment scale-ranks is not registered")
	}
	var buf bytes.Buffer

	// Set-up: load the golden, then run the quick 512-rank shape once
	// and check it against the golden's scale-ranks section.
	for start, i := time.Now(), 0; r.settingUp(start, i); i++ {
		err := r.setup(func() error {
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				return err
			}
			buf.Reset()
			fmt.Fprintf(&buf, "==== %s: %s ====\n", e.ID, e.Title)
			err = e.Run(&buf, experiments.Options{Quick: true})
			buf.WriteString("\n")
			f := checkOutput(err, nil, nil)
			if f == ok && !bytes.Contains(golden, buf.Bytes()) {
				f = failBytes
			}
			r.check(f)
			return nil
		})
		if err != nil {
			return err
		}
	}

	var plain, traced []float64
	refSecs := 0.0
	perSize := map[int][]float64{} // events/s of each rank count, traced
	for start, n := time.Now(), 0; r.measuring(start, n); n++ {
		refSecs += r.ref.sample(ranksRefChunks)
		buf.Reset()
		before := simmpi.Engine()
		t0 := time.Now()
		err := e.Run(&buf, experiments.Options{})
		plain = append(plain, time.Since(t0).Seconds())
		sum := sha256.Sum256(buf.Bytes())
		r.check(checkDigest("output", err, hex.EncodeToString(sum[:]), ranksOutputDigest))
		ev, _, _ := engineDelta(before, simmpi.Engine())
		r.check(checkCount(ev, ranksEvents))
		if r.tr == nil {
			continue
		}
		secs, rates, err := tracedRanks(r)
		if err != nil {
			return err
		}
		traced = append(traced, secs)
		for cores, rate := range rates {
			perSize[cores] = append(perSize[cores], rate)
		}
	}

	r.params["nodes"] = ranksNodes
	r.params["ranks"] = ranksCores
	r.params["steps"] = ranksCfg.Steps
	r.params["runs"] = len(plain)
	r.dist("ranks_s", plain, 1)
	// The mean curve over the mean chunk timed between curves: a run holds
	// only five or six curves, too few for a median of per-curve ratios.
	mean := normalize(stats.Mean(plain), refSecs, len(plain)*ranksRefChunks)
	r.set("work_ms", mean*1000)
	r.set("ops_per_s", ranksEvents/mean)
	if r.tr != nil {
		r.dist("experiments.scale-ranks.s", traced, 1)
		r.set("simmpi.events", ranksEvents)
		r.set("simmpi.runs", float64(len(ranksCores)))
		r.set("simmpi.events_per_s", ranksEvents/summarize(traced).Median)
		for _, cores := range []int{512, 4096, 10240} {
			r.dist(fmt.Sprintf("simmpi.ranks%d.events_per_s", cores), perSize[cores], 1)
		}
		r.set("trace.overhead_pct", overheadPct(plain, traced))
	}
	return nil
}

// tracedRanks drives the same strong-scaling curve through
// specfem.TimeDistributed, one span per rank count, and checks its
// points and event count. It returns the curve's seconds and each rank
// count's committed events per second.
func tracedRanks(r *run) (float64, map[int]float64, error) {
	root := r.tr.begin("experiments.scale-ranks", 0, 0)
	id := r.tr.begin("cluster.Tibidabo", root, 0)
	c, err := cluster.Tibidabo(ranksNodes)
	r.tr.end(id)
	if err != nil {
		r.tr.end(root)
		return 0, nil, err
	}
	rates := map[int]float64{}
	h := sha256.New()
	var events uint64
	var runErr error
	for _, cores := range ranksCores {
		id := r.tr.begin("specfem.TimeDistributed", root, 0)
		rep, err := specfem.TimeDistributed(c, cores, ranksCfg)
		secs := r.tr.end(id)
		if err != nil {
			runErr = err
			break
		}
		events += rep.Sched.Events
		rates[cores] = float64(rep.Sched.Events) / secs
		fmt.Fprintf(h, "%d %x %d\n", cores, math.Float64bits(rep.Seconds), rep.Drops)
	}
	secs := r.tr.end(root)
	r.check(checkDigest("points", runErr, hex.EncodeToString(h.Sum(nil)), ranksPointsDigest))
	r.check(checkCount(events, ranksEvents))
	return secs, rates, nil
}

// checkDigest classifies a scale-ranks result by its digest, naming the
// digest it got on standard error when it differs from the pinned one.
func checkDigest(what string, err error, got, want string) failure {
	f := checkOutput(err, []byte(got), []byte(want))
	if f == failBytes {
		fmt.Fprintf(os.Stderr, "ranks-10k: %s digest %s, pinned %s\n", what, got, want)
	}
	return f
}
