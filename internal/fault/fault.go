// Package fault turns failures into data: deterministic fault
// schedules — node crash/restart windows and transient degradations on
// named fabric links — described as spec-like JSON, validated like
// platform specs, and resolved against a concrete cluster shape into
// the simulator's fault primitives (simmpi.Outage windows and
// network.Degradation windows).
//
// A schedule is either explicit (a list of crash events and link
// faults) or generated: with MTBFSeconds set, each node draws crash
// times from an exponential interarrival process via internal/xrand —
// the only sanctioned randomness — so the same Spec always resolves to
// the same failures. Node n's crash stream depends only on (Seed, n),
// never on the node count, so growing a cluster leaves the existing
// nodes' failures untouched.
//
// FAULT.md documents the schema, the recovery protocol the resilience
// experiments model on top, and the exactness argument for why
// fault-injected runs stay byte-identical run to run.
// cluster.Cluster.Run is the one place a resolved schedule is applied.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"montblanc/internal/network"
	"montblanc/internal/simmpi"
	"montblanc/internal/xrand"
)

// DefaultDowntime is the restart time charged per crash when a spec
// does not say otherwise: the order of a node reboot plus job rejoin.
const DefaultDowntime = 30.0

// maxResolvedOutages bounds how many outages one schedule may resolve
// to. A dense schedule (tiny MTBF over a long horizon on many nodes)
// is almost always a unit mix-up; failing loudly beats simulating a
// cluster that spends its life rebooting.
const maxResolvedOutages = 1 << 17

// Spec is a fault schedule as data. The zero value is a valid,
// failure-free schedule; JSON specs are validated on load exactly like
// platform specs (unknown fields rejected, hostile numbers refused).
type Spec struct {
	// Name labels the schedule in reports and errors.
	Name string `json:"name,omitempty"`

	// Seed drives the generated part of the schedule via internal/xrand
	// (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`

	// MTBFSeconds, when > 0, generates crashes per node with this mean
	// time between failures (exponential interarrivals) over
	// [0, HorizonSeconds). The failure rate is 1/MTBFSeconds.
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`

	// HorizonSeconds bounds generated crash times. Zero defers to the
	// horizon hint the resolving caller supplies (experiments pass
	// their estimated makespan).
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`

	// DowntimeSeconds is the crash-to-restart time; zero means
	// DefaultDowntime.
	DowntimeSeconds float64 `json:"downtime_seconds,omitempty"`

	// Events are explicit crashes, applied in addition to any generated
	// ones.
	Events []Event `json:"events,omitempty"`

	// Links are transient degradation windows on named fabric links
	// (the network builders' names: "node3->sw", "leaf0->root", ...).
	Links []LinkFault `json:"links,omitempty"`

	// CheckpointIntervalSeconds pins the checkpoint interval for the
	// resilience experiments (must be > 0 when set; zero lets each
	// experiment choose its own grid or the Daly optimum).
	CheckpointIntervalSeconds float64 `json:"checkpoint_interval_seconds,omitempty"`
}

// Event is one explicit node crash.
type Event struct {
	Node int     `json:"node"`
	Time float64 `json:"time"`
	// Downtime overrides the spec-level DowntimeSeconds for this crash
	// (zero defers to it).
	Downtime float64 `json:"downtime,omitempty"`
}

// LinkFault is one transient degradation (a flap, a renegotiated
// speed, a lossy cable) on a named link.
type LinkFault struct {
	Link  string  `json:"link"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// BandwidthFactor divides the link bandwidth while the fault is
	// active; >= 1 (zero means 1: a latency-only fault).
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
	// ExtraLatencySeconds is added to every traversal while active.
	ExtraLatencySeconds float64 `json:"extra_latency_seconds,omitempty"`
}

// finiteNonNeg rejects NaN, infinities and negatives with a structured
// error naming the field.
func finiteNonNeg(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("fault: %s must be a non-negative finite number, got %v", field, v)
	}
	return nil
}

// Validate reports the first reason the spec is unusable. It is the
// single validation authority: the CLI flags, the service request path
// and the JSON loader all funnel through it, so hostile numbers (NaN
// rates, negative MTBFs, non-positive checkpoint intervals) are
// refused at every entry point with the same structured errors.
func (s *Spec) Validate() error {
	if err := finiteNonNeg("mtbf_seconds", s.MTBFSeconds); err != nil {
		return err
	}
	if err := finiteNonNeg("horizon_seconds", s.HorizonSeconds); err != nil {
		return err
	}
	if err := finiteNonNeg("downtime_seconds", s.DowntimeSeconds); err != nil {
		return err
	}
	if s.CheckpointIntervalSeconds != 0 {
		if math.IsNaN(s.CheckpointIntervalSeconds) || math.IsInf(s.CheckpointIntervalSeconds, 0) ||
			s.CheckpointIntervalSeconds <= 0 {
			return fmt.Errorf("fault: checkpoint_interval_seconds must be > 0 when set, got %v",
				s.CheckpointIntervalSeconds)
		}
	}
	for i, e := range s.Events {
		if e.Node < 0 {
			return fmt.Errorf("fault: events[%d]: negative node %d", i, e.Node)
		}
		if err := finiteNonNeg(fmt.Sprintf("events[%d].time", i), e.Time); err != nil {
			return err
		}
		if err := finiteNonNeg(fmt.Sprintf("events[%d].downtime", i), e.Downtime); err != nil {
			return err
		}
	}
	for i, lf := range s.Links {
		if strings.TrimSpace(lf.Link) == "" {
			return fmt.Errorf("fault: links[%d]: empty link name", i)
		}
		if err := (network.Degradation{
			Start:           lf.Start,
			End:             lf.End,
			BandwidthFactor: lf.BandwidthFactor,
			ExtraLatency:    lf.ExtraLatencySeconds,
		}).Validate(); err != nil {
			return fmt.Errorf("fault: links[%d] (%s): %w", i, lf.Link, err)
		}
	}
	return nil
}

// ParseSpec decodes and validates one JSON fault schedule. Unknown
// fields are rejected, like platform spec files: a typo'd knob must
// fail loudly, not silently leave the cluster failure-free.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: decoding schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecFile reads and validates a JSON fault schedule from disk.
func LoadSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return s, nil
}

// downtime returns the restart time one crash costs.
func (s *Spec) downtime(override float64) float64 {
	if override > 0 {
		return override
	}
	if s.DowntimeSeconds > 0 {
		return s.DowntimeSeconds
	}
	return DefaultDowntime
}

// Resolved is a fault schedule bound to a concrete cluster shape:
// outage windows ready for simmpi.Config.Outages and link faults ready
// to apply to a fabric. Resolution is deterministic — the same
// (spec, nodes, horizon) always yields the same Resolved.
type Resolved struct {
	Spec    *Spec
	Nodes   int
	Horizon float64 // the generation horizon actually used (0 if none)
	Outages []simmpi.Outage
}

// Resolve binds the spec to a cluster of the given node count.
// horizonHint bounds generated crash times when the spec does not pin
// its own horizon; callers pass their estimated makespan (with slack).
// Explicit events outside the node range are an error — a schedule
// written for a bigger machine must not silently lose its failures.
func (s *Spec) Resolve(nodes int, horizonHint float64) (*Resolved, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("fault: resolving against %d nodes", nodes)
	}
	if err := finiteNonNeg("horizon hint", horizonHint); err != nil {
		return nil, err
	}
	r := &Resolved{Spec: s, Nodes: nodes}
	for i, e := range s.Events {
		if e.Node >= nodes {
			return nil, fmt.Errorf("fault: events[%d] names node %d, cluster has %d", i, e.Node, nodes)
		}
		d := s.downtime(e.Downtime)
		r.Outages = append(r.Outages, simmpi.Outage{Node: e.Node, Start: e.Time, End: e.Time + d})
	}
	if s.MTBFSeconds > 0 {
		horizon := s.HorizonSeconds
		if horizon <= 0 {
			horizon = horizonHint
		}
		if horizon <= 0 {
			return nil, fmt.Errorf("fault: mtbf_seconds set but no horizon (set horizon_seconds or pass a hint)")
		}
		r.Horizon = horizon
		if expect := horizon / s.MTBFSeconds * float64(nodes); expect > maxResolvedOutages {
			return nil, fmt.Errorf("fault: schedule too dense: ~%.0f expected crashes over %d nodes (max %d) — check the MTBF/horizon units",
				expect, nodes, maxResolvedOutages)
		}
		d := s.downtime(0)
		for node := 0; node < nodes; node++ {
			// One independent stream per node, mixed from (Seed, node) so
			// the stream is invariant in the cluster size.
			rng := xrand.New(s.Seed ^ (uint64(node+1) * 0x9e3779b97f4a7c15))
			t := 0.0
			for {
				t += s.MTBFSeconds * rng.ExpFloat64()
				if t >= horizon {
					break
				}
				r.Outages = append(r.Outages, simmpi.Outage{Node: node, Start: t, End: t + d})
				if len(r.Outages) > maxResolvedOutages {
					return nil, fmt.Errorf("fault: schedule too dense: more than %d outages", maxResolvedOutages)
				}
				t += d // a node cannot fail while it is down
			}
		}
	}
	sort.Slice(r.Outages, func(i, j int) bool {
		a, b := r.Outages[i], r.Outages[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.End < b.End
	})
	return r, nil
}

// Apply schedules the spec's link faults on the fabric. Callers apply
// after any Reset (a reset fabric is failure-free) and before the run.
func (r *Resolved) Apply(net *network.Network) error {
	for i, lf := range r.Spec.Links {
		err := net.DegradeLink(lf.Link, network.Degradation{
			Start:           lf.Start,
			End:             lf.End,
			BandwidthFactor: lf.BandwidthFactor,
			ExtraLatency:    lf.ExtraLatencySeconds,
		})
		if err != nil {
			return fmt.Errorf("fault: links[%d]: %w", i, err)
		}
	}
	return nil
}

// NodeOutages returns one node's outage windows in start order.
func (r *Resolved) NodeOutages(node int) []simmpi.Outage {
	var out []simmpi.Outage
	for _, o := range r.Outages {
		if o.Node == node {
			out = append(out, o)
		}
	}
	return out
}
