// Package network simulates the Ethernet fabric of the Tibidabo cluster:
// full-duplex links, store-and-forward switches with finite per-port
// buffers, and hierarchical 48-port 1 GbE topologies. The model is
// flow-level: a message reserves each link of its path in sequence, and
// the backlog a link has accumulated when a message arrives stands in
// for switch queue occupancy — when it exceeds the port buffer the
// message suffers a retransmission penalty. That mechanism is the
// paper's diagnosis for BigDFT's delayed all_to_all_v collectives
// (Figure 4): "The Ethernet switches used in Tibidabo was identified as
// the origin of these bad performances."
package network

import (
	"fmt"
	"math"
)

// Link is one direction of a cable or backplane port.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/s
	Latency   float64 // seconds per traversal
	Buffer    int     // egress buffer in bytes; 0 = infinite (no drops)
	// RetransmitPenalty is added to a message's completion when it
	// arrives to an overflowing buffer (drop + timeout + resend).
	RetransmitPenalty float64

	busyUntil float64
	transfers uint64
	drops     uint64

	// degs are the link's scheduled degradation windows (fault
	// injection); degraded counts the transfers that started inside one.
	degs     []Degradation
	degraded uint64
}

// Degradation weakens a link over [Start, End) of virtual time:
// bandwidth is divided by BandwidthFactor (>= 1; zero means 1, a
// latency-only fault) and ExtraLatency is added per traversal. The
// window that applies to a message is chosen by its transfer *start*
// time — a pure function of prior traffic, so degraded runs stay
// byte-identical run to run. A degradation is a fault: it only ever
// slows a link down, and Degrade rejects windows that would speed one
// up.
type Degradation struct {
	Start, End      float64
	BandwidthFactor float64
	ExtraLatency    float64
}

// Validate reports why the degradation is unusable, if it is.
func (d Degradation) Validate() error {
	switch {
	case math.IsNaN(d.Start) || math.IsNaN(d.End) ||
		math.IsInf(d.Start, 0) || math.IsInf(d.End, 0):
		return fmt.Errorf("network: degradation window [%v, %v) is not finite", d.Start, d.End)
	case d.Start < 0:
		return fmt.Errorf("network: degradation start %v is negative", d.Start)
	case d.End <= d.Start:
		return fmt.Errorf("network: degradation window [%v, %v) is empty", d.Start, d.End)
	case math.IsNaN(d.BandwidthFactor) || (d.BandwidthFactor != 0 && d.BandwidthFactor < 1):
		return fmt.Errorf("network: bandwidth factor %v would speed the link up (need >= 1)", d.BandwidthFactor)
	case math.IsInf(d.BandwidthFactor, 1):
		return fmt.Errorf("network: bandwidth factor is infinite")
	case math.IsNaN(d.ExtraLatency) || math.IsInf(d.ExtraLatency, 0) || d.ExtraLatency < 0:
		return fmt.Errorf("network: extra latency %v is not a non-negative finite duration", d.ExtraLatency)
	}
	return nil
}

// Degrade schedules a degradation window on the link. Windows may
// overlap; overlapping effects stack (factors multiply, latencies
// add).
func (l *Link) Degrade(d Degradation) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("%w (link %s)", err, l.Name)
	}
	if d.BandwidthFactor == 0 {
		d.BandwidthFactor = 1
	}
	l.degs = append(l.degs, d)
	return nil
}

// NewLink returns a link with the given characteristics. Non-positive
// bandwidths and negative latencies are clamped to tiny-but-valid
// values so a misconfigured topology degrades instead of dividing by
// zero.
func NewLink(name string, bandwidth, latency float64, buffer int, penalty float64) *Link {
	if bandwidth <= 0 {
		bandwidth = 1
	}
	if latency < 0 {
		latency = 0
	}
	if buffer < 0 {
		buffer = 0
	}
	if penalty < 0 {
		penalty = 0
	}
	return &Link{
		Name:              name,
		Bandwidth:         bandwidth,
		Latency:           latency,
		Buffer:            buffer,
		RetransmitPenalty: penalty,
	}
}

// Backlog returns the queued bytes not yet serialized at time t.
func (l *Link) Backlog(t float64) float64 {
	if l.busyUntil <= t {
		return 0
	}
	return (l.busyUntil - t) * l.Bandwidth
}

// Transfer reserves the link for a message of the given size arriving at
// time t. It returns the time the last byte leaves the link and whether
// the message was delayed by a buffer overrun. The retransmission
// penalty delays the message's own delivery but not the link: other
// traffic flows while the dropped packet waits for its timeout.
func (l *Link) Transfer(t float64, bytes int) (done float64, dropped bool) {
	return l.transfer(t, bytes, false)
}

// TransferFlowControlled is Transfer for receiver-paced (rendezvous)
// messages: they share bandwidth and queue like everyone else, but a
// full buffer never drops them.
func (l *Link) TransferFlowControlled(t float64, bytes int) float64 {
	done, _ := l.transfer(t, bytes, true)
	return done
}

func (l *Link) transfer(t float64, bytes int, flowControlled bool) (done float64, dropped bool) {
	l.transfers++
	severity := 1.0
	if !flowControlled && l.Buffer > 0 {
		if backlog := l.Backlog(t); backlog > float64(l.Buffer) {
			dropped = true
			l.drops++
			// Sustained overload loses several packets in a row and
			// triggers exponential backoff: scale the penalty with the
			// (log of the) overflow factor.
			severity = 1 + math.Log2(backlog/float64(l.Buffer))
		}
	}
	start := math.Max(t, l.busyUntil)
	latency, bandwidth := l.Latency, l.Bandwidth
	if len(l.degs) > 0 {
		hit := false
		for _, d := range l.degs {
			if start >= d.Start && start < d.End {
				latency += d.ExtraLatency
				bandwidth /= d.BandwidthFactor
				hit = true
			}
		}
		if hit {
			l.degraded++
		}
	}
	done = start + latency + float64(bytes)/bandwidth
	l.busyUntil = done
	if dropped {
		done += l.RetransmitPenalty * severity
	}
	return done, dropped
}

// Stats returns the transfer and drop counts.
func (l *Link) Stats() (transfers, drops uint64) { return l.transfers, l.drops }

// Degraded returns how many transfers started inside a degradation
// window.
func (l *Link) Degraded() uint64 { return l.degraded }

// Reset returns the link to its pristine built state: reservations,
// counters and degradation windows are all cleared. Fault injection is
// per run — whoever resets the fabric re-applies its schedule.
func (l *Link) Reset() {
	l.busyUntil = 0
	l.transfers = 0
	l.drops = 0
	l.degs = nil
	l.degraded = 0
}

// Network is a set of nodes with a routing function returning the
// ordered links a message crosses from src to dst.
type Network struct {
	NumNodes int
	route    func(src, dst int) []*Link
	links    []*Link
}

// New creates a network over numNodes nodes. route must return the link
// path for any src != dst pair; links is the full link inventory (for
// stats and reset).
//
// Allocation contract: Send/SendOpts only iterate the returned path and
// never retain it past the call, so route may return a reused buffer
// (the Star and Tree builders do, making the per-message send path
// allocation-free). A Network already serializes no state across
// concurrent Sends — link reservations mutate shared busyUntil fields —
// so buffer reuse adds no new constraint: one simulation drives one
// Network at a time.
func New(numNodes int, links []*Link, route func(src, dst int) []*Link) *Network {
	return &Network{NumNodes: numNodes, route: route, links: links}
}

// Result describes one message delivery.
type Result struct {
	Arrival float64 // when the last byte reaches dst
	Dropped bool    // at least one hop overran a buffer
	Hops    int
}

// SendOptions tunes one message delivery.
type SendOptions struct {
	// FlowControlled marks a rendezvous-protocol message: the receiver
	// paces the sender, so switch buffers cannot overflow, at the cost
	// of an extra handshake round-trip.
	FlowControlled bool
}

// Send delivers an eager message of the given size from src to dst,
// injected at time t, and returns its arrival time. Store-and-forward:
// each link is traversed after the previous one delivered the full
// message.
func (n *Network) Send(t float64, src, dst, bytes int) (Result, error) {
	return n.SendOpts(t, src, dst, bytes, SendOptions{})
}

// SendOpts is Send with explicit protocol options.
func (n *Network) SendOpts(t float64, src, dst, bytes int, o SendOptions) (Result, error) {
	if src < 0 || src >= n.NumNodes || dst < 0 || dst >= n.NumNodes {
		return Result{}, fmt.Errorf("network: rank out of range: %d -> %d", src, dst)
	}
	if bytes < 0 {
		return Result{}, fmt.Errorf("network: negative message size %d", bytes)
	}
	path := n.route(src, dst)
	res := Result{Arrival: t, Hops: len(path)}
	if o.FlowControlled {
		// Rendezvous handshake: request + clear-to-send round trip.
		for _, l := range path {
			res.Arrival += 2 * l.Latency
		}
		for _, l := range path {
			res.Arrival = l.TransferFlowControlled(res.Arrival, bytes)
		}
		return res, nil
	}
	for _, l := range path {
		done, dropped := l.Transfer(res.Arrival, bytes)
		res.Arrival = done
		res.Dropped = res.Dropped || dropped
	}
	return res, nil
}

// DegradeLink schedules a degradation window on the named link. The
// builders name links after their endpoints: on a Star "node<i>->sw",
// "sw->node<i>" and "node<i>-loop"; on a Tree "node<i>->leaf",
// "leaf->node<i>", "node<i>-loop", "leaf<j>->root" and "root->leaf<j>".
// Naming a link the topology does not have is an error — a fault
// schedule aimed at a missing edge is a configuration bug, not a
// no-op — and the error shows a real link name of this fabric.
func (n *Network) DegradeLink(name string, d Degradation) error {
	for _, l := range n.links {
		if l.Name == name {
			return l.Degrade(d)
		}
	}
	if len(n.links) == 0 {
		return fmt.Errorf("network: no link named %q: the fabric has no links", name)
	}
	return fmt.Errorf("network: no link named %q; this fabric's links are named like %q",
		name, n.links[0].Name)
}

// DegradedTransfers returns the total transfers that started inside a
// degradation window, across all links.
func (n *Network) DegradedTransfers() uint64 {
	var d uint64
	for _, l := range n.links {
		d += l.Degraded()
	}
	return d
}

// Drops returns the total buffer overruns across all links.
func (n *Network) Drops() uint64 {
	var d uint64
	for _, l := range n.links {
		_, dd := l.Stats()
		d += dd
	}
	return d
}

// Reset clears all link state, including any scheduled degradations
// (see Link.Reset): a reset fabric is failure-free until a fault
// schedule is applied again.
func (n *Network) Reset() {
	for _, l := range n.links {
		l.Reset()
	}
}

// GigE characteristics used by the Tibidabo builders.
const (
	GigEBandwidth = 125e6 // bytes/s (1 Gb/s)
	// GigELatency is the per-hop latency including the slow TCP stack on
	// the Tegra2 (the Tibidabo report measures ~50-100us MPI latency).
	GigELatency = 50e-6
	// SwitchPortBuffer approximates the shared buffer slice one port of
	// a commodity 48-port GbE switch gets.
	SwitchPortBuffer = 256 << 10
	// RetransmitPenalty is the effective cost of a drop: TCP fast
	// retransmit / timeout on a slow ARM host.
	RetransmitPenalty = 15e-3
	// LoopbackBandwidth models intra-node (shared-memory) transfers on
	// the Tegra2's DDR2.
	LoopbackBandwidth = 600e6
	LoopbackLatency   = 2e-6
)

// Star builds a single-switch network: every node connects to one switch
// with an up and a down link. This is a Tibidabo slice of up to one
// 48-port switch (the ≤36-core experiments of Figures 3c and 4).
func Star(nodes int) *Network {
	up := make([]*Link, nodes)
	down := make([]*Link, nodes)
	loop := make([]*Link, nodes)
	var all []*Link
	for i := 0; i < nodes; i++ {
		up[i] = NewLink(fmt.Sprintf("node%d->sw", i), GigEBandwidth, GigELatency, 0, 0)
		down[i] = NewLink(fmt.Sprintf("sw->node%d", i), GigEBandwidth, GigELatency,
			SwitchPortBuffer, RetransmitPenalty)
		loop[i] = NewLink(fmt.Sprintf("node%d-loop", i), LoopbackBandwidth, LoopbackLatency, 0, 0)
		all = append(all, up[i], down[i], loop[i])
	}
	// Every route is built in one reused path buffer, valid until the
	// next route call (see New).
	path := make([]*Link, 0, 2)
	return New(nodes, all, func(src, dst int) []*Link {
		if src == dst {
			return append(path[:0], loop[src])
		}
		return append(path[:0], up[src], down[dst])
	})
}

// Tree builds a two-level switch hierarchy: nodes attach to leaf
// switches of leafSize ports; leaves connect to a root switch through
// one uplink pair each (1:leafSize oversubscription, as on Tibidabo
// where 48-port leaf switches interconnect hierarchically).
func Tree(nodes, leafSize int) *Network {
	if leafSize <= 0 {
		leafSize = 32
	}
	nLeaves := (nodes + leafSize - 1) / leafSize
	up := make([]*Link, nodes)
	down := make([]*Link, nodes)
	loop := make([]*Link, nodes)
	leafUp := make([]*Link, nLeaves)
	leafDown := make([]*Link, nLeaves)
	var all []*Link
	for i := 0; i < nodes; i++ {
		up[i] = NewLink(fmt.Sprintf("node%d->leaf", i), GigEBandwidth, GigELatency, 0, 0)
		down[i] = NewLink(fmt.Sprintf("leaf->node%d", i), GigEBandwidth, GigELatency,
			SwitchPortBuffer, RetransmitPenalty)
		loop[i] = NewLink(fmt.Sprintf("node%d-loop", i), LoopbackBandwidth, LoopbackLatency, 0, 0)
		all = append(all, up[i], down[i], loop[i])
	}
	for s := 0; s < nLeaves; s++ {
		leafUp[s] = NewLink(fmt.Sprintf("leaf%d->root", s), GigEBandwidth, GigELatency,
			SwitchPortBuffer, RetransmitPenalty)
		leafDown[s] = NewLink(fmt.Sprintf("root->leaf%d", s), GigEBandwidth, GigELatency,
			SwitchPortBuffer, RetransmitPenalty)
		all = append(all, leafUp[s], leafDown[s])
	}
	leafOf := func(node int) int { return node / leafSize }
	// Every route is built in one reused path buffer (see New).
	path := make([]*Link, 0, 4)
	return New(nodes, all, func(src, dst int) []*Link {
		if src == dst {
			return append(path[:0], loop[src])
		}
		ls, ld := leafOf(src), leafOf(dst)
		if ls == ld {
			return append(path[:0], up[src], down[dst])
		}
		return append(path[:0], up[src], leafUp[ls], leafDown[ld], down[dst])
	})
}

// InfiniteBuffers disables buffer overruns on every link — the ablation
// knob for the Figure 3c collapse (BenchmarkAblationSwitchBuffers).
func (n *Network) InfiniteBuffers() {
	for _, l := range n.links {
		l.Buffer = 0
	}
}
