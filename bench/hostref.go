package main

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"time"
)

// A shared 2-vCPU Intel Xeon host changes speed by a third or more for
// minutes at a time, and by as much again for fractions of a second, so no
// estimator of raw time (fastest unit, median, mean) repeats from one run
// to the next. Every workload therefore times a fixed reference kernel
// between its units of work, and the bounded end-to-end metrics are
// host-normalized: raw time scaled by refNominalMs over the mean time of
// the chunks timed around it (README.md says which chunks for which
// metric). The kernel has the simulator's mix of work — an event heap,
// allocation, map updates, float formatting, a sort — but none of its
// code, so a change to the simulator cannot move it, while a slow host
// state slows both alike. Over 30 s windows of one process on that host,
// the raw time of a quick pass spread by 22% and a full scale-ranks curve
// by 36% (interquartile range over median), and their ratios to the
// interleaved reference by 3.5% and 3.8%.

// refIters is the number of events one reference chunk processes.
const refIters = 8000

// refNominalMs is the pinned time of one reference chunk that normalized
// times are expressed at: a round figure near the chunk's time on a
// 2-vCPU Intel Xeon host in its fast state, so normalized milliseconds
// read close to raw milliseconds there.
const refNominalMs = 4.0

// hostRef accumulates the reference chunks a run has timed, for the
// host_ref_ms the result file reports.
type hostRef struct {
	secs   float64
	chunks int
}

// sample times n reference chunks and returns their seconds.
func (h *hostRef) sample(n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		refChunk()
	}
	secs := time.Since(start).Seconds()
	h.secs += secs
	h.chunks += n
	return secs
}

// chunkMs is the mean time of one reference chunk so far, in ms.
func (h *hostRef) chunkMs() float64 {
	return h.secs / float64(h.chunks) * 1000
}

// normalize converts the raw time of a unit of work into host-normalized
// time, in the same unit, given the seconds of the n reference chunks
// timed just before it.
func normalize(raw, chunkSecs float64, n int) float64 {
	return raw * refNominalMs * float64(n) / (chunkSecs * 1000)
}

// refEvent is one entry of the reference kernel's event queue.
type refEvent struct {
	at      float64
	rank    int
	payload []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSink keeps the reference kernel's result live.
var refSink float64

// refChunk is one fixed piece of reference work: refIters events through
// a 1024-entry heap, each allocating a payload, updating a map and a
// square-root sum, every sixteenth formatted as text, then a sort of the
// accumulated values. Its inputs come from a fixed xorshift stream, so
// every chunk does the same work.
func refChunk() {
	s := uint64(12345)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	q := make(refQueue, 0, 1024)
	for i := 0; i < 1024; i++ {
		heap.Push(&q, &refEvent{at: float64(next() % 1000), rank: i})
	}
	sums := map[uint64]float64{}
	var keys []uint64
	var text bytes.Buffer
	acc := 0.0
	for i := 0; i < refIters; i++ {
		e := heap.Pop(&q).(*refEvent)
		k := next() % 50000
		if _, seen := sums[k]; !seen {
			keys = append(keys, k)
		}
		sums[k] += e.at
		acc += math.Sqrt(e.at + 1)
		if i%16 == 0 {
			fmt.Fprintf(&text, "%d %.6g\n", e.rank, e.at)
		}
		heap.Push(&q, &refEvent{at: e.at + float64(next()%100), rank: e.rank, payload: make([]byte, 64)})
	}
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = sums[k]
	}
	slices.Sort(vals)
	refSink += acc + vals[0] + float64(text.Len())
}
