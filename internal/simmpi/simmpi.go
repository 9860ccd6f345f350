// Package simmpi is a deterministic, discrete-event MPI simulator: rank
// programs written in Go run as coroutines against a simulated network
// and advance a virtual clock instead of wall time. It provides the
// substrate for the paper's scalability studies (Figures 3 and 4):
// point-to-point messaging with eager and rendezvous protocols, and the
// collectives the applications need, built from point-to-point exactly
// like a real MPI implementation would.
//
// Determinism: a central scheduler executes communication events in
// global (virtual time, rank) order. It drives every rank body itself,
// resuming a rank right after committing its operation and running it
// until it declares the next one, so every live rank has always declared
// when the next event commits and link reservations happen in causal
// order. Running the same program twice produces bit-identical timings
// and traces.
//
// The scheduler commits from an indexed min-heap of executable
// operations in O(log Ranks) per event with an allocation-free
// steady-state hot path; SIMMPI.md documents the design, the
// determinism invariants, and the performance envelope.
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
	// presizes the per-rank interval buffers and the shared
	// communication log, eliminating append regrowth on long runs. It
	// never affects results, only allocation behaviour; zero (or
	// tracing off) means no preallocation.
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
// Events is a pure function of the program; Wall is host time.
type SchedStats struct {
	Events uint64  // operations committed
	Wall   float64 // host seconds spent inside the run
}

type opKind int

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

// op is one rank's declared next operation. Each Proc owns exactly one
// op struct for its whole lifetime (postBuf): because a rank is
// suspended until the scheduler resumes it, and the scheduler never
// touches an op after resuming its rank, the struct can be reused for
// every post — the hot path allocates nothing per operation.
type op struct {
	kind          opKind
	rank          int
	time          float64 // rank-local post time
	src, dst, tag int
	bytes         int
	ready         float64 // completion time once executable
	matched       bool    // recv only
	matchedMsg    msg
	err           error // exit only
	heapIdx       int   // position in the scheduler heap, -1 if outside
}

type msg struct {
	arrival float64
	dropped bool
	bytes   int
}

type resumeMsg struct {
	time    float64
	dropped bool // recv only: the message was retransmitted en route
}

// hooks are test-only scheduler observation points; the zero value is
// the production configuration.
type hooks struct {
	// pick, when set, replaces the heap picker: given the pending table
	// it returns the executable op with the smallest (ready, rank), or
	// nil when none is executable. The equivalence property suite
	// supplies the seed scheduler's O(Ranks) scan as the reference.
	pick func(pending []*op) *op
	// onCommit, when set, observes every committed operation in commit
	// order.
	onCommit func(kind opKind, rank int, ready float64)
}

type world struct {
	cfg     Config
	procs   []*Proc
	mail    []mailbox // indexed by destination rank
	pending []*op     // indexed by rank; nil while the rank is running
	heap    opHeap
	comms   []trace.Comm
	hooks   hooks

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
	tr           *trace.Trace
	collSeq      map[string]int
	droppedRecvs int // running count of retransmitted messages received
	postBuf      op  // the rank's reusable operation struct

	// The rank body runs as an iter.Pull coroutine: next resumes it until
	// it declares an operation (or returns), stop unwinds it, and yield
	// suspends it from post. res is where the scheduler leaves the
	// committed operation's outcome before resuming the rank.
	next  func() (*op, bool)
	stop  func()
	yield func(*op) bool
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
	if p.tr == nil {
		return
	}
	p.tr.AddInterval(trace.Interval{
		Rank: p.rank, Kind: kind, Name: name, Start: start, End: end,
	})
}

// rankAborted is the panic value post raises when the scheduler stops
// a suspended rank: it unwinds the body — even one that ignores the
// errors of Send and Recv — back to Proc.call, which recovers it.
type rankAborted struct{}

// post submits an operation through the rank's reusable op struct and
// suspends the rank until the scheduler completes it. The scheduler owns
// the struct from the yield until it resumes the rank; it never touches
// the op afterwards, so the next post may safely overwrite it.
func (p *Proc) post(kind opKind, src, dst, tag, bytes int) resumeMsg {
	o := &p.postBuf
	o.kind = kind
	o.rank = p.rank
	o.time = p.now
	o.src, o.dst, o.tag = src, dst, tag
	o.bytes = bytes
	o.matched = false
	o.matchedMsg = msg{}
	o.err = nil
	if !p.yield(o) {
		panic(rankAborted{})
	}
	return p.res
}

// resume runs the rank until it declares its next operation and returns
// that operation; once the body has returned it returns the rank's exit.
func (p *Proc) resume() *op {
	if o, ok := p.next(); ok {
		return o
	}
	return &p.postBuf
}

// Send transmits bytes to rank dst with the given tag. It returns once
// the local side is free again (eager) — delivery happens in the
// background at network speed.
func (p *Proc) Send(dst, tag, bytes int) error {
	if dst < 0 || dst >= p.size {
		return fmt.Errorf("simmpi: send to invalid rank %d", dst)
	}
	if bytes < 0 {
		return fmt.Errorf("simmpi: negative send size %d", bytes)
	}
	start := p.now
	p.now = p.post(opSend, 0, dst, tag, bytes).time
	if p.tr != nil {
		p.record(trace.StateSend, p.w.sendLabels[dst], start, p.now)
	}
	// A completion landing inside an outage is observed at the restart;
	// the gap between the recorded interval and the warped clock shows
	// up as idle time.
	p.skipDown()
	return nil
}

// Recv blocks until a message from src with the given tag arrives.
func (p *Proc) Recv(src, tag int) error {
	if src < 0 || src >= p.size {
		return fmt.Errorf("simmpi: recv from invalid rank %d", src)
	}
	start := p.now
	r := p.post(opRecv, src, 0, tag, 0)
	p.now = r.time
	if r.dropped {
		p.droppedRecvs++
	}
	if p.tr != nil {
		p.record(trace.StateRecv, p.w.recvLabels[src], start, p.now)
	}
	p.skipDown() // deferred completion, as in Send
	return nil
}

// Collective wraps body in a named collective interval; the instance
// name carries a per-rank sequence number so the same call site groups
// across ranks ("alltoallv#3"). The interval records how many of the
// rank's receives inside the collective were retransmitted — the
// Figure 4 congestion evidence.
func (p *Proc) Collective(name string, body func() error) error {
	seq := p.collSeq[name]
	p.collSeq[name] = seq + 1
	start := p.now
	dropsBefore := p.droppedRecvs
	err := body()
	if p.tr != nil {
		p.tr.AddInterval(trace.Interval{
			Rank: p.rank, Kind: trace.StateCollective,
			Name: name + "#" + strconv.Itoa(seq), Start: start, End: p.now,
			Dropped: p.droppedRecvs - dropsBefore,
		})
	}
	return err
}

// Run executes body on every rank of a fresh world and returns the
// report. Any rank error aborts with that error (lowest rank wins), even
// when the failed rank leaves its peers deadlocked.
func Run(cfg Config, body func(*Proc) error) (*Report, error) {
	return run(cfg, body, hooks{})
}

// newWorld builds the run's state: the ranks, mailboxes, the pending
// table, the event heap and the interned trace labels.
func newWorld(cfg Config, body func(*Proc) error, h hooks) *world {
	w := &world{
		cfg:     cfg,
		mail:    make([]mailbox, cfg.Ranks),
		pending: make([]*op, cfg.Ranks),
		heap:    opHeap{a: make([]*op, 0, cfg.Ranks)},
		hooks:   h,
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
		if cfg.TraceHint > 0 {
			// Roughly half a rank's intervals are sends, each one comm.
			w.comms = make([]trace.Comm, 0, cfg.Ranks*cfg.TraceHint/2)
		}
	}
	w.spawnProcs(body)
	return w
}

// spawnProcs creates one Proc per rank with body as its coroutine. A
// rank runs only while the scheduler resumes it, and runs nothing until
// the first resume.
func (w *world) spawnProcs(body func(*Proc) error) {
	cfg := w.cfg
	w.procs = make([]*Proc, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		p := &Proc{rank: r, size: cfg.Ranks, w: w, collSeq: map[string]int{}}
		if w.outages != nil {
			p.down = w.outages[w.node(r)]
			p.skipDown() // a node down at t=0 boots its ranks at the restart
		}
		if cfg.CollectTrace {
			p.tr = trace.New(cfg.Ranks)
			if cfg.TraceHint > 0 {
				p.tr.Reserve(cfg.TraceHint, 0)
			}
		}
		p.next, p.stop = iter.Pull(func(yield func(*op) bool) {
			p.yield = yield
			err := p.call(body)
			// The body has returned: its final post (if any) is fully
			// committed, so the reusable op struct is free for the exit.
			p.postBuf = op{kind: opExit, rank: p.rank, time: p.now, err: err}
		})
		w.procs[r] = p
	}
}

// call runs body on the rank, turning a panic into an error. A stopped
// rank unwinds through here with rankAborted, which is not an error:
// the run has already failed for another reason.
func (p *Proc) call(body func(*Proc) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(rankAborted); !ok {
				err = fmt.Errorf("rank body panicked: %v", r)
			}
		}
	}()
	return body(p)
}

// stopRanks unwinds every rank still suspended in post. run defers it,
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

// mergeTrace assembles the final trace: per-rank intervals in rank
// order plus the global communication log, then the canonical sort.
func mergeTrace(cfg Config, procs []*Proc, comms []trace.Comm) *trace.Trace {
	tr := trace.New(cfg.Ranks)
	nIntervals := 0
	for _, p := range procs {
		nIntervals += len(p.tr.Intervals)
	}
	tr.Reserve(nIntervals, len(comms))
	for _, p := range procs {
		tr.Merge(p.tr)
	}
	tr.Comms = append(tr.Comms, comms...)
	tr.Sort()
	return tr
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
	for r := range w.procs {
		w.step(r) // every rank to its first declaration
	}

	endTimes := make([]float64, cfg.Ranks)
	rankErrs := make([]error, cfg.Ranks)
	live := cfg.Ranks
	var stats SchedStats

	for live > 0 {
		// Commit the executable op with the smallest (ready, rank).
		best := w.pick()
		if best == nil {
			if err := rankError(rankErrs); err != nil {
				return nil, err
			}
			return nil, w.deadlockError()
		}
		w.pending[best.rank] = nil
		stats.Events++
		if h.onCommit != nil {
			h.onCommit(best.kind, best.rank, best.ready)
		}
		switch best.kind {
		case opSend:
			res, err := w.deliver(best)
			if err != nil {
				return nil, err
			}
			m := msg{arrival: res.Arrival, dropped: res.Dropped, bytes: best.bytes}
			w.mail[best.dst].push(best.rank, best.tag, m)
			if cfg.CollectTrace {
				w.comms = append(w.comms, trace.Comm{
					Src: best.rank, Dst: best.dst, Tag: best.tag, Bytes: best.bytes,
					Sent: best.time, Arrived: res.Arrival, Dropped: res.Dropped,
				})
			}
			// A parked recv may now be satisfiable.
			if ro := w.pending[best.dst]; ro != nil && ro.kind == opRecv && !ro.matched {
				w.tryMatch(ro)
			}
			overhead := sendOverhead + float64(best.bytes)/copyBandwidth
			w.procs[best.rank].res = resumeMsg{time: best.time + overhead}
			w.step(best.rank)
		case opRecv:
			copyCost := float64(best.matchedMsg.bytes) / copyBandwidth
			w.procs[best.rank].res = resumeMsg{
				time:    best.ready + copyCost,
				dropped: best.matchedMsg.dropped,
			}
			w.step(best.rank)
		case opExit:
			live--
			endTimes[best.rank] = best.time
			rankErrs[best.rank] = best.err
		}
	}
	if err := rankError(rankErrs); err != nil {
		return nil, err
	}

	stats.Wall = nowMonotonic() - start
	rep := &Report{RankSeconds: endTimes, Drops: cfg.Net.Drops(), Sched: stats,
		Faults: faultTotals(w.procs)}
	for _, t := range endTimes {
		if t > rep.Seconds {
			rep.Seconds = t
		}
	}
	if cfg.CollectTrace {
		rep.Trace = mergeTrace(cfg, w.procs, w.comms)
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

// step resumes rank r until it declares its next operation, and makes
// that operation pending: sends and exits are executable at once, recvs
// once a message matches.
func (w *world) step(r int) {
	o := w.procs[r].resume()
	w.pending[r] = o
	switch o.kind {
	case opSend, opExit:
		o.ready = o.time
		w.enqueue(o)
	case opRecv:
		o.ready = math.Inf(1)
		w.tryMatch(o)
	}
}

// enqueue makes an executable op eligible for commit.
func (w *world) enqueue(o *op) {
	if w.hooks.pick != nil {
		return // the reference picker scans pending directly
	}
	w.heap.push(o)
}

// pick returns the executable pending op with the smallest
// (ready, rank), or nil if none is executable.
func (w *world) pick() *op {
	if w.hooks.pick != nil {
		return w.hooks.pick(w.pending)
	}
	return w.heap.pop()
}

// deliver pushes a send through the network, choosing eager or
// rendezvous by size.
func (w *world) deliver(o *op) (network.Result, error) {
	opts := network.SendOptions{FlowControlled: o.bytes > EagerThreshold}
	return w.cfg.Net.SendOpts(o.time, w.node(o.rank), w.node(o.dst), o.bytes, opts)
}

// tryMatch completes a pending recv against the mailbox if possible,
// making it executable.
func (w *world) tryMatch(o *op) {
	m, ok := w.mail[o.rank].match(o.src, o.tag)
	if !ok {
		return
	}
	o.matched = true
	o.matchedMsg = m
	o.ready = math.Max(o.time, m.arrival)
	w.enqueue(o)
}

// describe renders the op for diagnostics.
func (o *op) describe() string {
	switch o.kind {
	case opSend:
		return fmt.Sprintf("send to %d tag %d (%d bytes)", o.dst, o.tag, o.bytes)
	case opRecv:
		return fmt.Sprintf("recv from %d tag %d", o.src, o.tag)
	case opExit:
		return "exit"
	default:
		return o.kind.String()
	}
}

// deadlockError reports a state where every live rank has declared an
// operation but none is executable. It names the lowest blocked rank's
// actual pending operation — whatever its kind — and tallies the rest
// by kind, so a stall is never misreported as a recv when something
// else is stuck.
func (w *world) deadlockError() error {
	lowest, blocked := -1, 0
	kinds := [3]int{}
	for r, o := range w.pending {
		if o == nil {
			continue
		}
		if lowest == -1 {
			lowest = r
		}
		blocked++
		if int(o.kind) < len(kinds) {
			kinds[o.kind]++
		}
	}
	if lowest == -1 {
		return errors.New("simmpi: deadlock with no pending operations")
	}
	o := w.pending[lowest]
	return fmt.Errorf("simmpi: deadlock: rank %d waiting on %s (%d more ranks blocked; pending ops: %d send, %d recv, %d exit)",
		lowest, o.describe(), blocked-1, kinds[opSend], kinds[opRecv], kinds[opExit])
}
