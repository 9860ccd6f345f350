// Conservative parallel scheduler: ranks are sharded across worker
// goroutines on node boundaries, and events commit in bounded time
// windows whose width is the network's lookahead — the minimum one-way
// latency between distinct nodes. Within a window every shard commits
// its own events independently in (ready, rank) order; all cross-node
// sends are deferred to the window barrier, where a single sweep
// replays them against the network in the merged global (ready, rank)
// order. The result is byte-identical to the sequential reference
// scheduler at any worker count; SIMMPI.md walks the exactness
// argument in full. The short version:
//
//   - Mailbox matching is keyed by exact (src, tag) per destination and
//     both sides follow per-rank program order, so recv/message pairing
//     is independent of global commit interleaving. Only the network's
//     link state (busyUntil, drop counters) is order-sensitive.
//   - Intra-node sends traverse only the node's loopback link. Shards
//     own whole nodes, so those reservations are shard-private and the
//     shard's commit order equals the global order restricted to it.
//   - Cross-node sends touch shared links, so their reservations happen
//     in the barrier sweep in exact global order. Deferring them has no
//     observable effect inside the window: the sender's resume time
//     (post + overhead + copy) does not depend on the delivery, and the
//     message cannot arrive — so cannot match a recv — before
//     post + lookahead, which is at or beyond the window edge.
//   - Every op committed in window k has ready >= the window's opening
//     minimum, so a cross send's arrival lands at or past the next
//     window's edge: nothing committed in window k can observe it.
package simmpi

import (
	"math"

	"montblanc/internal/network"
	"montblanc/internal/trace"
)

// pshard is one scheduler shard: a contiguous block of whole nodes
// whose ranks [lo, hi) it alone resumes, with its own indexed min-heap
// and cross-send outbox. All fields are owned by the shard goroutine
// during a window and read by the coordinator only between phaseDone
// and the next cmd send.
type pshard struct {
	lo, hi int
	heap   opHeap
	live   int // ranks not yet exited
	out    outbox
	comms  []trace.Comm // intra-node comms in shard commit order
	events uint64
	locals uint64 // intra-node sends committed shard-locally

	cmd chan float64 // next window edge; closed to stop the shard

	// First intra-node delivery failure in shard order; the coordinator
	// resolves the globally-first error across shards and the barrier.
	err     error
	errTime float64
	errRank int
}

// pworld is the parallel scheduler's state: the shared world plus the
// shard set and the coordinator's bookkeeping.
type pworld struct {
	*world
	shards     []*pshard
	shardOf    []int // rank -> shard id
	phaseDone  chan struct{}
	endTimes   []float64
	rankErrs   []error
	crossSends uint64
}

// runParallel executes body under the conservative windowed scheduler
// with the given shard count (>= 2, already bounded by the node count).
func runParallel(cfg Config, body func(*Proc) error, workers int) (*Report, error) {
	start := nowMonotonic()
	la := cfg.Net.Lookahead()
	pw := &pworld{
		world:     newWorld(cfg, body, hooks{}),
		shardOf:   make([]int, cfg.Ranks),
		phaseDone: make(chan struct{}, workers),
		endTimes:  make([]float64, cfg.Ranks),
		rankErrs:  make([]error, cfg.Ranks),
	}
	// Shards own contiguous node blocks: intra-node traffic (loopback
	// links, same-node mailboxes) then never crosses a shard boundary.
	nodes := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	base, rem := nodes/workers, nodes%workers
	node0 := 0
	for i := 0; i < workers; i++ {
		nn := base
		if i < rem {
			nn++
		}
		lo := node0 * cfg.RanksPerNode
		hi := (node0 + nn) * cfg.RanksPerNode
		if hi > cfg.Ranks {
			hi = cfg.Ranks
		}
		s := &pshard{lo: lo, hi: hi, cmd: make(chan float64), live: hi - lo}
		s.heap.a = make([]*op, 0, hi-lo)
		for r := lo; r < hi; r++ {
			pw.shardOf[r] = i
		}
		pw.shards = append(pw.shards, s)
		node0 += nn
	}
	defer pw.stopRanks()
	for _, s := range pw.shards {
		go pw.shardLoop(s)
	}

	stats := SchedStats{Workers: workers, Lookahead: la}
	var netErr, deadlock error
	for {
		// Wait out the phase: first every rank's first declaration, then
		// one window per round.
		for range pw.shards {
			<-pw.phaseDone
		}
		if netErr = pw.barrier(); netErr != nil {
			break
		}
		live := 0
		for _, s := range pw.shards {
			live += s.live
		}
		if live == 0 {
			break
		}
		// The next window opens at the global minimum ready time (the
		// barrier may have matched recvs into the heaps) and spans one
		// lookahead.
		minNext := math.Inf(1)
		for _, s := range pw.shards {
			if m := s.heap.peek(); m != nil && m.ready < minNext {
				minNext = m.ready
			}
		}
		if math.IsInf(minNext, 1) {
			deadlock = pw.deadlockError()
			break
		}
		stats.Windows++
		for _, s := range pw.shards {
			s.cmd <- minNext + la
		}
	}
	for _, s := range pw.shards {
		close(s.cmd)
	}
	if netErr != nil {
		return nil, netErr
	}
	if err := rankError(pw.rankErrs); err != nil {
		return nil, err
	}
	if deadlock != nil {
		return nil, deadlock
	}

	for _, s := range pw.shards {
		stats.Events += s.events
		stats.LocalSends += s.locals
	}
	stats.CrossSends = pw.crossSends
	stats.Wall = nowMonotonic() - start
	rep := &Report{RankSeconds: pw.endTimes, Drops: cfg.Net.Drops(), Sched: stats,
		Faults: faultTotals(pw.procs)}
	for _, t := range pw.endTimes {
		if t > rep.Seconds {
			rep.Seconds = t
		}
	}
	if cfg.CollectTrace {
		rep.Trace = mergeTrace(cfg, pw.procs, pw.mergedComms())
	}
	recordEngineRun(stats)
	return rep, nil
}

// shardLoop runs one shard: it resumes each of its ranks to its first
// declaration, then runs a window per cmd value until the channel
// closes.
func (pw *pworld) shardLoop(s *pshard) {
	for r := s.lo; r < s.hi; r++ {
		pw.step(r, &s.heap)
	}
	pw.phaseDone <- struct{}{}
	for edge := range s.cmd {
		pw.runWindow(s, edge)
		pw.phaseDone <- struct{}{}
	}
}

// runWindow commits this shard's events with ready < edge, in the
// shard's (ready, rank) order — exactly the global commit order
// restricted to the shard's ranks.
func (pw *pworld) runWindow(s *pshard, edge float64) {
	s.out.reset()
	for s.err == nil {
		best := s.heap.peek()
		if best == nil || best.ready >= edge {
			return
		}
		s.heap.pop()
		pw.pending[best.rank] = nil
		s.events++
		switch best.kind {
		case opSend:
			pw.commitSend(s, best)
		case opRecv:
			copyCost := float64(best.matchedMsg.bytes) / pw.cfg.CopyBandwidth
			pw.procs[best.rank].res = resumeMsg{
				time:    best.ready + copyCost,
				dropped: best.matchedMsg.dropped,
			}
			pw.step(best.rank, &s.heap)
		case opExit:
			s.live--
			pw.endTimes[best.rank] = best.time
			pw.rankErrs[best.rank] = best.err
		}
	}
}

// commitSend commits one send. Intra-node sends deliver immediately on
// the shard-private loopback link; cross-node sends are copied into the
// outbox for the barrier sweep. Either way the sender resumes now: its
// resume time does not depend on the delivery outcome.
func (pw *pworld) commitSend(s *pshard, o *op) {
	cfg := &pw.cfg
	// Grouped exactly as the sequential path computes it: float addition
	// is not associative and the outputs must match to the last bit.
	overhead := cfg.SendOverhead + float64(o.bytes)/cfg.CopyBandwidth
	resumeAt := o.time + overhead
	if pw.node(o.rank) != pw.node(o.dst) {
		s.out.push(xsend{time: o.time, rank: o.rank, dst: o.dst, tag: o.tag, bytes: o.bytes})
		pw.procs[o.rank].res = resumeMsg{time: resumeAt}
		pw.step(o.rank, &s.heap)
		return
	}
	s.locals++
	res, err := pw.deliver(o)
	if err != nil {
		s.err, s.errTime, s.errRank = err, o.time, o.rank
		return
	}
	m := msg{arrival: res.Arrival, dropped: res.Dropped, bytes: o.bytes}
	pw.mail[o.dst].push(o.rank, o.tag, m)
	if cfg.CollectTrace {
		s.comms = append(s.comms, trace.Comm{
			Src: o.rank, Dst: o.dst, Tag: o.tag, Bytes: o.bytes,
			Sent: o.time, Arrived: res.Arrival, Dropped: res.Dropped,
		})
	}
	if ro := pw.pending[o.dst]; ro != nil && ro.kind == opRecv && !ro.matched {
		pw.tryMatch(ro, &s.heap)
	}
	pw.procs[o.rank].res = resumeMsg{time: resumeAt}
	pw.step(o.rank, &s.heap)
}

// barrier runs between windows with every shard parked: it drains the
// shards' outboxes merged by (time, rank) — reproducing the sequential
// scheduler's link reservation order exactly — delivers into the
// mailboxes and matches parked recvs into their shards' heaps. It
// returns the globally-first error, honouring shard-local failures that
// interleave with barrier deliveries in commit order.
func (pw *pworld) barrier() error {
	cutErr := error(nil)
	cutT, cutR := math.Inf(1), 0
	for _, s := range pw.shards {
		if s.err != nil && (cutErr == nil || s.errTime < cutT || (s.errTime == cutT && s.errRank < cutR)) {
			cutErr, cutT, cutR = s.err, s.errTime, s.errRank
		}
	}
	cfg := &pw.cfg
	for {
		var best *pshard
		var bx *xsend
		for _, s := range pw.shards {
			x := s.out.peek()
			if x == nil {
				continue
			}
			if bx == nil || x.time < bx.time || (x.time == bx.time && x.rank < bx.rank) {
				best, bx = s, x
			}
		}
		if bx == nil {
			break
		}
		if cutErr != nil && (bx.time > cutT || (bx.time == cutT && bx.rank > cutR)) {
			return cutErr // the shard-local failure committed first
		}
		best.out.pop()
		opts := network.SendOptions{FlowControlled: bx.bytes > EagerThreshold}
		res, err := cfg.Net.SendOpts(bx.time, pw.node(bx.rank), pw.node(bx.dst), bx.bytes, opts)
		if err != nil {
			return err
		}
		pw.crossSends++
		pw.mail[bx.dst].push(bx.rank, bx.tag, msg{arrival: res.Arrival, dropped: res.Dropped, bytes: bx.bytes})
		if cfg.CollectTrace {
			pw.comms = append(pw.comms, trace.Comm{
				Src: bx.rank, Dst: bx.dst, Tag: bx.tag, Bytes: bx.bytes,
				Sent: bx.time, Arrived: res.Arrival, Dropped: res.Dropped,
			})
		}
		if ro := pw.pending[bx.dst]; ro != nil && ro.kind == opRecv && !ro.matched {
			pw.tryMatch(ro, &pw.shards[pw.shardOf[ro.rank]].heap)
		}
	}
	return cutErr
}

// mergedComms merges the shards' intra-node comm logs with the barrier
// comm log by (Sent, Src). Sent times are strictly increasing per
// sender (every send pays SendOverhead before the next), so the key is
// unique and the merge reproduces the sequential insertion order — the
// tie-break trace.Sort's stable by-Sent sort depends on.
func (pw *pworld) mergedComms() []trace.Comm {
	lists := make([][]trace.Comm, 0, len(pw.shards)+1)
	total := 0
	for _, s := range pw.shards {
		lists = append(lists, s.comms)
		total += len(s.comms)
	}
	lists = append(lists, pw.comms)
	total += len(pw.comms)
	out := make([]trace.Comm, 0, total)
	cur := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if cur[i] >= len(l) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			c, b := &l[cur[i]], &lists[best][cur[best]]
			if c.Sent < b.Sent || (c.Sent == b.Sent && c.Src < b.Src) {
				best = i
			}
		}
		out = append(out, lists[best][cur[best]])
		cur[best]++
	}
	return out
}
