// Package simmpi is a deterministic, discrete-event MPI simulator: rank
// programs written in Go run as coroutines against a simulated network
// and advance a virtual clock instead of wall time. It provides the
// substrate for the paper's scalability studies (Figures 3 and 4):
// point-to-point messaging with eager and rendezvous protocols, and the
// collectives the applications need, built from point-to-point exactly
// like a real MPI implementation would.
//
// Determinism: a central scheduler commits communication events in
// global (virtual time, rank) order. It drives every rank body itself. A
// rank runs ahead through every operation whose outcome it can compute
// alone — each Send, and each Recv whose message is already in its
// mailbox — queuing them in program order, and waits at a Recv with
// nothing to match, at a full queue or at exit; the scheduler commits
// queued operations one event at a time and resumes the rank once its
// queue has drained. Every live rank has therefore declared its next
// operation whenever the next event commits, link reservations happen
// in causal order, and running the same program twice produces
// bit-identical timings and traces.
//
// Because ranks run ahead of the commit loop, rank bodies must share
// nothing but messages: a body may not read what another rank's body
// writes, nor write what another reads.
//
// The scheduler commits from a min-heap of (ready, rank) keys in
// O(log Ranks) per event with an allocation-free steady-state hot path;
// SIMMPI.md documents the design, the determinism invariants, and the
// performance envelope.
package simmpi

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"strconv"

	"montblanc/internal/network"
	"montblanc/internal/trace"
)

// EagerThreshold is the message size above which transfers switch from
// the eager protocol (fire-and-forget, can overflow switch buffers) to
// receiver-paced rendezvous (immune to drops, extra handshake). 64 KiB
// follows common MPI defaults of the era.
const EagerThreshold = 64 << 10

// A send costs the sender sendOverhead of CPU time plus a memcpy of
// the message at copyBandwidth (bytes/s); a receive costs the receiver
// the same memcpy once the last byte has arrived.
const (
	sendOverhead  = 2e-6
	copyBandwidth = 600e6
)

// Outage marks a node unavailable over [Start, End) of virtual time: a
// crash at Start followed by a restart at End. While the node is down
// its ranks are frozen — local work in progress resumes after the
// restart, and communication completions landing inside the window are
// deferred to it (in-flight messages progress through the fabric
// store-and-forward, but a rank cannot observe them while its node is
// down). Down windows are left unrecorded in the trace, so
// phase-resolved energy accounting prices them at idle watts for free.
//
// Determinism: an outage changes only how a rank's local clock
// advances — a pure function of (the rank's node, the rank's program)
// — so it never creates or reorders events, and a fault-injected run
// is as byte-identical run to run as a failure-free one.
type Outage struct {
	Node       int
	Start, End float64
}

// Config describes one simulated job.
type Config struct {
	Ranks        int
	Net          *network.Network
	RanksPerNode int // default 1

	// Outages injects node failures into the run (see Outage). Windows
	// on the same node may overlap; they are merged. Empty means a
	// failure-free run, byte-identical to a Config without the field.
	Outages []Outage

	// CoreFlopsPerSec is the per-rank sustained floating-point rate used
	// by ComputeFlops. Default 1e9.
	CoreFlopsPerSec float64

	// CollectTrace enables interval/communication recording.
	CollectTrace bool

	// TraceHint is an optional capacity hint: the expected number of
	// trace intervals one rank records. When CollectTrace is set it
	// presizes the ranks' interval lists and the communication log,
	// eliminating append regrowth on long runs. It never affects
	// results, only allocation behaviour; zero (or tracing off) means no
	// preallocation.
	TraceHint int
}

func (c Config) withDefaults() Config {
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = 1
	}
	if c.CoreFlopsPerSec <= 0 {
		c.CoreFlopsPerSec = 1e9
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Ranks <= 0 {
		return errors.New("simmpi: need at least one rank")
	}
	if c.Net == nil {
		return errors.New("simmpi: nil network")
	}
	if need := (c.Ranks + c.RanksPerNode - 1) / c.RanksPerNode; need > c.Net.NumNodes {
		return fmt.Errorf("simmpi: %d ranks at %d per node need %d nodes, network has %d",
			c.Ranks, c.RanksPerNode, need, c.Net.NumNodes)
	}
	for i, o := range c.Outages {
		switch {
		case math.IsNaN(o.Start) || math.IsNaN(o.End) ||
			math.IsInf(o.Start, 0) || math.IsInf(o.End, 0):
			return fmt.Errorf("simmpi: outage %d: non-finite window [%v, %v)", i, o.Start, o.End)
		case o.Start < 0:
			return fmt.Errorf("simmpi: outage %d: negative start %v", i, o.Start)
		case o.End <= o.Start:
			return fmt.Errorf("simmpi: outage %d: empty window [%v, %v)", i, o.Start, o.End)
		case o.Node < 0 || o.Node >= c.Net.NumNodes:
			return fmt.Errorf("simmpi: outage %d: node %d outside [0, %d)", i, o.Node, c.Net.NumNodes)
		}
	}
	return nil
}

// Report is the outcome of a run.
type Report struct {
	Seconds     float64 // makespan: latest rank finish time
	RankSeconds []float64
	Trace       *trace.Trace // nil unless CollectTrace
	Drops       uint64       // network buffer overruns
	Sched       SchedStats   // how the scheduler executed the run
	Faults      FaultStats   // injected-outage impact (zero when failure-free)
}

// FaultStats summarizes what the injected node outages did to a run.
// Like the rest of the report it is byte-identical run to run: freezes
// are a pure function of each rank's program and its node's outage
// windows.
type FaultStats struct {
	DownSeconds float64 // total rank-seconds frozen inside outage windows
	Interrupts  uint64  // rank-freeze events (one per outage a rank hit)
}

// SchedStats describes one run from the scheduler's point of view.
// Events and Resumes are pure functions of the program; Wall is host
// time.
type SchedStats struct {
	Events  uint64  // operations committed
	Resumes uint64  // times the scheduler resumed a rank body
	Wall    float64 // host seconds spent inside the run
}

type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opExit
)

func (k opKind) String() string {
	switch k {
	case opSend:
		return "send"
	case opRecv:
		return "recv"
	case opExit:
		return "exit"
	default:
		return fmt.Sprintf("opKind(%d)", int(k))
	}
}

// queueCap is how many declared, uncommitted operations a rank may
// queue before it waits for them to commit. Every slot costs 32 bytes
// per rank for the whole run, 0.3 MB per slot at 10240 ranks; six slots
// let a 2-D halo step (up to four sends, then the receives whose
// messages have arrived) run ahead over most of its operations.
const queueCap = 6

// op is one declared, uncommitted operation in its rank's queue. The
// queues are slots of one slab allocated per run, so the hot path
// allocates nothing per operation.
type op struct {
	// ready is the commit key with the rank: the post time of a send or
	// exit, max(post, arrival) for a matched recv, and the post time of
	// a parked one.
	ready float64
	tag   int
	bytes int   // send: message size; matched recv: the message's size
	peer  int32 // send: destination; recv: source
	kind  opKind
	// parked marks a recv no message has matched yet: the one op that
	// may not commit.
	parked bool
	// dropped marks a matched recv whose message was retransmitted en
	// route.
	dropped bool
}

// done is the time a send or matched recv returns to its rank: the
// sender pays its overhead and memcpy from the post, the receiver its
// memcpy once the message has arrived.
func (o *op) done() float64 {
	if o.kind == opSend {
		return o.ready + (sendOverhead + float64(o.bytes)/copyBandwidth)
	}
	return o.ready + float64(o.bytes)/copyBandwidth
}

type msg struct {
	arrival float64
	dropped bool
	bytes   int
}

type resumeMsg struct {
	time    float64
	dropped bool // the message was retransmitted en route
}

// hooks are test-only scheduler observation points; the zero value is
// the production configuration.
type hooks struct {
	// pick, when set, replaces the heap picker: given the pending table
	// (each rank's queue head if executable, else nil) it returns the op
	// with the smallest (ready, rank), or nil when none is executable.
	// The equivalence property suite supplies the seed scheduler's
	// O(Ranks) scan as the reference. It also restores the seed's
	// interleaving: every rank waits after every operation.
	pick func(pending []*op) *op
	// onCommit, when set, observes every committed operation in commit
	// order.
	onCommit func(kind opKind, rank int, ready float64)
}

type world struct {
	cfg   Config
	procs []*Proc
	mail  []mailbox // indexed by destination rank
	heap  opHeap
	// tr is the run's trace, recorded in place (nil unless
	// CollectTrace): each rank appends to its own list, and the commit
	// loop to the communication log.
	tr    *trace.Trace
	hooks hooks
	// pending is the table hooks.pick scans, refilled before every pick;
	// nil without the hook.
	pending []*op

	// outages holds each node's merged, start-sorted outage windows;
	// nil for failure-free runs (the hot paths then skip all fault
	// bookkeeping).
	outages [][]Outage

	// Interned trace labels, indexed by peer rank (built only when
	// CollectTrace is set): one "send->N" / "recv<-N" string per rank
	// for the whole run instead of one fmt.Sprintf per message.
	sendLabels []string
	recvLabels []string
}

func (w *world) node(rank int) int { return rank / w.cfg.RanksPerNode }

// Proc is the handle a rank program uses: its identity, virtual clock
// and communication primitives.
type Proc struct {
	rank, size   int
	now          float64
	w            *world
	ivs          *[]trace.Interval // this rank's list in w.tr; nil unless tracing
	collSeq      map[string]int    // calls per collective name; nil until the first
	droppedRecvs int               // running count of retransmitted messages received
	err          error             // what the body returned, once it has

	// queue holds the rank's declared, uncommitted operations in program
	// order: the rank appends at tail, the scheduler commits from head.
	// The rank waits whenever it cannot go on alone, and is resumed only
	// once the queue has drained, so the two never touch it at once.
	queue      []op
	head, tail int

	// The rank body runs as an iter.Pull coroutine: next resumes it until
	// it waits (or returns), stop unwinds it, and yield suspends it from
	// wait. res is where the scheduler leaves a parked recv's outcome
	// before resuming the rank.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	res   resumeMsg

	// down is this rank's node's outage schedule (nil when failure-
	// free); downIdx advances monotonically with the clock, so fault
	// checks are O(1) amortized and free once the last outage is past.
	down        []Outage
	downIdx     int
	downSeconds float64
	interrupts  uint64
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks.
func (p *Proc) Size() int { return p.size }

// Now returns the rank's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.now }

// Compute advances the virtual clock by seconds of local work.
func (p *Proc) Compute(seconds float64, label string) {
	p.advance(seconds, trace.StateCompute, label)
}

// ComputeFlops advances the clock by flops at the configured core rate.
func (p *Proc) ComputeFlops(flops float64, label string) {
	p.Compute(flops/p.w.cfg.CoreFlopsPerSec, label)
}

// Stall advances the virtual clock by seconds of memory-bound work
// (cores waiting on DRAM), recorded as a memory interval so
// phase-resolved power accounting can charge it at memory watts.
func (p *Proc) Stall(seconds float64, label string) {
	p.advance(seconds, trace.StateMemory, label)
}

// advance moves the clock forward by seconds of local work of the
// given kind, freezing whenever the rank's node is down: work that
// overlaps an outage is suspended and resumes after the restart,
// recorded as separate intervals around the (unrecorded) down window.
func (p *Proc) advance(seconds float64, kind trace.Kind, label string) {
	if seconds < 0 {
		seconds = 0
	}
	if p.downIdx >= len(p.down) {
		// The only path failure-free runs take: byte-identical to the
		// historical Compute/Stall, including zero-length intervals.
		start := p.now
		p.now += seconds
		p.record(kind, label, start, p.now)
		return
	}
	remaining := seconds
	for {
		p.skipDown()
		limit := math.Inf(1)
		if p.downIdx < len(p.down) {
			limit = p.down[p.downIdx].Start
		}
		if p.now+remaining <= limit {
			start := p.now
			p.now += remaining
			p.record(kind, label, start, p.now)
			return
		}
		// Work until the crash, then loop: skipDown freezes across the
		// outage opening at limit and the tail resumes after it.
		if done := limit - p.now; done > 0 {
			p.record(kind, label, p.now, limit)
			p.now = limit
			remaining -= done
		} else {
			p.now = limit
		}
	}
}

// skipDown freezes the rank across any outage containing its current
// clock, charging the frozen time to the fault stats. Clocks are
// monotonic, so the window index only ever moves forward.
func (p *Proc) skipDown() {
	for p.downIdx < len(p.down) {
		o := p.down[p.downIdx]
		if o.End <= p.now {
			p.downIdx++
			continue
		}
		if o.Start > p.now {
			return
		}
		p.downSeconds += o.End - p.now
		p.interrupts++
		p.now = o.End
		p.downIdx++
	}
}

func (p *Proc) record(kind trace.Kind, name string, start, end float64) {
	if p.ivs == nil {
		return
	}
	*p.ivs = append(*p.ivs, trace.Interval{Kind: kind, Name: name, Start: start, End: end})
}

// rankAborted is the panic value wait raises when the scheduler stops a
// suspended rank: it unwinds the body — even one that ignores the
// errors of Send and Recv — back to Proc.call, which recovers it.
type rankAborted struct{}

// declare appends an operation of the given kind, posted now and ready
// at once, to the rank's queue. There is always room: a rank waits as
// soon as its queue is full.
func (p *Proc) declare(kind opKind) *op {
	o := &p.queue[p.tail]
	p.tail++
	*o = op{kind: kind, ready: p.now}
	return o
}

// full reports whether the rank must wait before declaring again.
func (p *Proc) full() bool { return p.tail == len(p.queue) }

// wait suspends the rank until every operation in its queue has
// committed.
func (p *Proc) wait() {
	if !p.yield(struct{}{}) {
		panic(rankAborted{})
	}
}

// Send transmits bytes to rank dst with the given tag. It returns once
// the local side is free again (eager) — delivery happens in the
// background at network speed. The local cost does not depend on the
// network, so the rank queues the send and goes on without waiting for
// it to commit.
func (p *Proc) Send(dst, tag, bytes int) error {
	if dst < 0 || dst >= p.size {
		return fmt.Errorf("simmpi: send to invalid rank %d", dst)
	}
	if bytes < 0 {
		return fmt.Errorf("simmpi: negative send size %d", bytes)
	}
	start := p.now
	o := p.declare(opSend)
	o.peer, o.tag, o.bytes = int32(dst), tag, bytes
	p.now = o.done()
	if p.ivs != nil {
		p.record(trace.StateSend, p.w.sendLabels[dst], start, p.now)
	}
	// A completion landing inside an outage is observed at the restart;
	// the gap between the recorded interval and the warped clock shows
	// up as idle time.
	p.skipDown()
	if p.full() {
		p.wait()
	}
	return nil
}

// Recv blocks until a message from src with the given tag arrives. A
// message already in the rank's mailbox completes the receive at once;
// otherwise the rank waits until a send delivers one.
func (p *Proc) Recv(src, tag int) error {
	if src < 0 || src >= p.size {
		return fmt.Errorf("simmpi: recv from invalid rank %d", src)
	}
	start := p.now
	o := p.declare(opRecv)
	o.peer, o.tag = int32(src), tag
	var dropped bool
	if m, ok := p.w.mail[p.rank].match(src, tag); ok {
		o.ready = math.Max(start, m.arrival)
		o.bytes, o.dropped = m.bytes, m.dropped
		p.now, dropped = o.done(), m.dropped
		if p.full() {
			p.wait()
		}
	} else {
		o.parked = true
		p.wait()
		p.now, dropped = p.res.time, p.res.dropped
	}
	if dropped {
		p.droppedRecvs++
	}
	if p.ivs != nil {
		p.record(trace.StateRecv, p.w.recvLabels[src], start, p.now)
	}
	p.skipDown() // deferred completion, as in Send
	return nil
}

// Collective wraps body in a named collective interval; the instance
// name carries a per-rank sequence number so the same call site groups
// across ranks ("alltoallv#3"). The interval records how many of the
// rank's receives inside the collective were retransmitted — the
// Figure 4 congestion evidence. It takes its slot in the rank's list
// when the collective begins and gets its end when the body returns,
// so the list stays in start order.
func (p *Proc) Collective(name string, body func() error) error {
	if p.collSeq == nil {
		p.collSeq = map[string]int{}
	}
	seq := p.collSeq[name]
	p.collSeq[name] = seq + 1
	slot := -1
	if p.ivs != nil {
		slot = len(*p.ivs)
		p.record(trace.StateCollective, name+"#"+strconv.Itoa(seq), p.now, p.now)
	}
	dropsBefore := p.droppedRecvs
	err := body()
	if slot >= 0 {
		iv := &(*p.ivs)[slot]
		iv.End, iv.Dropped = p.now, p.droppedRecvs-dropsBefore
	}
	return err
}

// Run executes body on every rank of a fresh world and returns the
// report. Any rank error aborts with that error (lowest rank wins), even
// when the failed rank leaves its peers deadlocked.
func Run(cfg Config, body func(*Proc) error) (*Report, error) {
	return run(cfg, body, hooks{})
}

// newWorld builds the run's state: the ranks and their queues,
// mailboxes, the event heap and the interned trace labels.
func newWorld(cfg Config, body func(*Proc) error, h hooks) *world {
	w := &world{
		cfg:   cfg,
		mail:  make([]mailbox, cfg.Ranks),
		heap:  opHeap{a: make([]heapKey, 0, cfg.Ranks)},
		hooks: h,
	}
	capacity := queueCap
	if h.pick != nil {
		w.pending = make([]*op, cfg.Ranks)
		capacity = 1 // the seed's interleaving: wait after every operation
	}
	if len(cfg.Outages) > 0 {
		w.outages = buildNodeOutages(cfg)
	}
	if cfg.CollectTrace {
		w.sendLabels = make([]string, cfg.Ranks)
		w.recvLabels = make([]string, cfg.Ranks)
		for i := range w.sendLabels {
			n := strconv.Itoa(i)
			w.sendLabels[i] = "send->" + n
			w.recvLabels[i] = "recv<-" + n
		}
		w.tr = trace.New(cfg.Ranks)
		if hint := cfg.TraceHint; hint > 0 {
			// One slab cut into the ranks' lists. Roughly half a rank's
			// intervals are sends, each one comm.
			slab := make([]trace.Interval, cfg.Ranks*hint)
			for r := range w.tr.ByRank {
				w.tr.ByRank[r] = slab[r*hint : r*hint : (r+1)*hint]
			}
			w.tr.Comms = make([]trace.Comm, 0, cfg.Ranks*hint/2)
		}
	}
	w.spawnProcs(body, capacity)
	return w
}

// spawnProcs creates one Proc per rank with body as its coroutine and a
// queue of capacity operations cut from one slab. A rank runs only while
// the scheduler resumes it, and runs nothing until the first resume.
func (w *world) spawnProcs(body func(*Proc) error, capacity int) {
	cfg := w.cfg
	w.procs = make([]*Proc, cfg.Ranks)
	slab := make([]op, cfg.Ranks*capacity)
	for r := 0; r < cfg.Ranks; r++ {
		p := &Proc{rank: r, size: cfg.Ranks, w: w,
			queue: slab[r*capacity : (r+1)*capacity : (r+1)*capacity]}
		if w.outages != nil {
			p.down = w.outages[w.node(r)]
			p.skipDown() // a node down at t=0 boots its ranks at the restart
		}
		if w.tr != nil {
			p.ivs = &w.tr.ByRank[r]
		}
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			if p.call(body) {
				p.declare(opExit)
			}
		})
		w.procs[r] = p
	}
}

// call runs body on the rank, keeping what it returns in p.err and
// turning a panic into an error. It reports whether the body ended by
// itself: a stopped rank unwinds through here with rankAborted, which is
// not an error — the run has already failed for another reason — and
// declares no exit.
func (p *Proc) call(body func(*Proc) error) (ended bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(rankAborted); !ok {
				p.err = fmt.Errorf("rank body panicked: %v", r)
				ended = true
			}
		}
	}()
	p.err = body(p)
	return true
}

// stopRanks unwinds every rank still suspended in wait. run defers it,
// so no return path — success, deadlock or network error — leaves a
// rank's coroutine behind; it costs nothing for ranks whose body has
// returned.
func (w *world) stopRanks() {
	for _, p := range w.procs {
		p.stop()
	}
}

// buildNodeOutages groups, sorts and merges the configured outages by
// node. Overlapping or adjacent windows on one node collapse into one,
// so skipDown always sees disjoint windows in start order.
func buildNodeOutages(cfg Config) [][]Outage {
	per := make([][]Outage, cfg.Net.NumNodes)
	for _, o := range cfg.Outages {
		per[o.Node] = append(per[o.Node], o)
	}
	for n, list := range per {
		if len(list) < 2 {
			continue
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Start != list[j].Start {
				return list[i].Start < list[j].Start
			}
			return list[i].End < list[j].End
		})
		merged := list[:1]
		for _, o := range list[1:] {
			last := &merged[len(merged)-1]
			if o.Start <= last.End {
				if o.End > last.End {
					last.End = o.End
				}
				continue
			}
			merged = append(merged, o)
		}
		per[n] = merged
	}
	return per
}

// faultTotals sums the per-rank freeze accounting after a run. Safe to
// read without further synchronization: a rank writes its counters
// before its body returns, and the scheduler observed that exit before
// the run returned.
func faultTotals(procs []*Proc) FaultStats {
	var fs FaultStats
	for _, p := range procs {
		fs.DownSeconds += p.downSeconds
		fs.Interrupts += p.interrupts
	}
	return fs
}

// run is Run with scheduler hooks (production callers pass the zero
// value via Run; tests use the hooks to compare pickers and observe
// commit order).
func run(cfg Config, body func(*Proc) error, h hooks) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	start := nowMonotonic()
	w := newWorld(cfg, body, h)
	defer w.stopRanks()
	var stats SchedStats
	for r := range w.procs {
		w.resume(r) // every rank to its first wait
		stats.Resumes++
		w.admit(r)
	}

	endTimes := make([]float64, cfg.Ranks)
	rankErrs := make([]error, cfg.Ranks)
	live := cfg.Ranks

	for live > 0 {
		// Commit the executable queue head with the smallest (ready, rank).
		r := w.pick()
		if r < 0 {
			if err := rankError(rankErrs); err != nil {
				return nil, err
			}
			return nil, w.deadlockError()
		}
		p := w.procs[r]
		o := &p.queue[p.head]
		p.head++
		stats.Events++
		if h.onCommit != nil {
			h.onCommit(o.kind, r, o.ready)
		}
		wake := -1
		switch o.kind {
		case opSend:
			res, err := w.deliver(r, o)
			if err != nil {
				return nil, err
			}
			if w.tr != nil {
				w.tr.Comms = append(w.tr.Comms, trace.Comm{
					Src: r, Dst: int(o.peer), Tag: o.tag, Bytes: o.bytes,
					Sent: o.ready, Arrived: res.Arrival, Dropped: res.Dropped,
				})
			}
			wake = w.post(r, o, res)
		case opRecv:
			p.res = resumeMsg{time: o.done(), dropped: o.dropped}
		case opExit:
			live--
			endTimes[r] = o.ready
			rankErrs[r] = p.err
		}
		// o's slot is reused once the rank runs again. r's key is still
		// the heap's top: requeue replaces it before a woken destination
		// joins, which could otherwise sift above it.
		if p.head == p.tail && o.kind != opExit {
			w.resume(r)
			stats.Resumes++
		}
		w.requeue(r)
		if wake >= 0 && wake != r {
			w.admit(wake)
		}
	}
	if err := rankError(rankErrs); err != nil {
		return nil, err
	}

	stats.Wall = nowMonotonic() - start
	rep := &Report{RankSeconds: endTimes, Trace: w.tr, Drops: cfg.Net.Drops(), Sched: stats,
		Faults: faultTotals(w.procs)}
	for _, t := range endTimes {
		if t > rep.Seconds {
			rep.Seconds = t
		}
	}
	recordEngineRun(stats)
	return rep, nil
}

// rankError returns the lowest rank's error, wrapped, or nil when every
// exited rank succeeded.
func rankError(errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("simmpi: rank %d: %w", r, err)
		}
	}
	return nil
}

// resume runs rank r, whose queue has drained, until it waits again or
// its body returns; either way it leaves at least one operation queued.
func (w *world) resume(r int) {
	p := w.procs[r]
	p.head, p.tail = 0, 0
	p.next()
}

// headOf returns rank r's oldest uncommitted operation, or nil when its
// queue is empty.
func (w *world) headOf(r int) *op {
	if p := w.procs[r]; p.head < p.tail {
		return &p.queue[p.head]
	}
	return nil
}

// admit adds rank r to the heap if its queue head is executable. The
// rank must not be in the heap already.
func (w *world) admit(r int) {
	if w.hooks.pick != nil {
		return // the reference picker scans the queue heads directly
	}
	if o := w.headOf(r); o != nil && !o.parked {
		w.heap.push(heapKey{o.ready, r})
	}
}

// requeue updates the heap after rank r, its top, committed: the rank's
// next head replaces it if executable, otherwise the rank leaves.
func (w *world) requeue(r int) {
	if w.hooks.pick != nil {
		return
	}
	if o := w.headOf(r); o != nil && !o.parked {
		w.heap.replaceTop(heapKey{o.ready, r})
		return
	}
	w.heap.popTop()
}

// pick returns the rank whose queue head has the smallest (ready, rank)
// among the executable ones, or -1 if none is executable.
func (w *world) pick() int {
	if w.hooks.pick != nil {
		for r := range w.pending {
			w.pending[r] = nil
			if o := w.headOf(r); o != nil && !o.parked {
				w.pending[r] = o
			}
		}
		if o := w.hooks.pick(w.pending); o != nil {
			for r, head := range w.pending {
				if head == o {
					return r
				}
			}
		}
		return -1
	}
	if len(w.heap.a) == 0 {
		return -1
	}
	return w.heap.a[0].rank
}

// deliver pushes rank src's send through the network, choosing eager
// or rendezvous by size.
func (w *world) deliver(src int, o *op) (network.Result, error) {
	opts := network.SendOptions{FlowControlled: o.bytes > EagerThreshold}
	return w.cfg.Net.SendOpts(o.ready, w.node(src), w.node(int(o.peer)), o.bytes, opts)
}

// post hands the message of rank src's committed send to its
// destination. A parked recv is always the last op of its queue, and no
// message it could take is in the mailbox (it would have taken it), so
// when that recv waits for this (src, tag) it takes this message
// directly; otherwise the message joins the mailbox. post returns the
// destination when its recv matched and heads its queue, and so becomes
// executable, or -1.
func (w *world) post(src int, o *op, res network.Result) int {
	d := w.procs[o.peer]
	if d.head < d.tail {
		if ro := &d.queue[d.tail-1]; ro.parked && int(ro.peer) == src && ro.tag == o.tag {
			ro.ready = math.Max(ro.ready, res.Arrival)
			ro.bytes, ro.dropped, ro.parked = o.bytes, res.Dropped, false
			if d.head == d.tail-1 {
				return int(o.peer)
			}
			return -1
		}
	}
	w.mail[o.peer].push(src, o.tag, msg{arrival: res.Arrival, dropped: res.Dropped, bytes: o.bytes})
	return -1
}

// deadlockError reports a state where live ranks remain but no queued
// operation is executable. Ranks run ahead through every send and every
// already-matched recv, so every live rank's queue then holds exactly
// one parked recv: it names the lowest blocked rank's (source, tag) and
// counts the other ranks blocked.
func (w *world) deadlockError() error {
	lowest, blocked := -1, 0
	for r := range w.procs {
		if w.headOf(r) == nil {
			continue
		}
		if lowest == -1 {
			lowest = r
		}
		blocked++
	}
	if lowest == -1 {
		return errors.New("simmpi: deadlock with no pending operations")
	}
	o := w.headOf(lowest)
	return fmt.Errorf("simmpi: deadlock: rank %d waiting on recv from %d tag %d (%d more ranks blocked)",
		lowest, o.peer, o.tag, blocked-1)
}
