// Package papi mirrors the slice of the PAPI hardware-counter interface
// the paper uses for the magicfilter auto-tuning study (§V.B, Figure 7):
// total cycles and cache accesses, plus the supporting events the
// simulators can observe. Counters are backed by the cache hierarchy and
// core models rather than silicon.
package papi

import (
	"fmt"
	"sort"
	"strings"

	"montblanc/internal/cache"
)

// Event is a PAPI-style preset event.
type Event int

// Supported preset events (names follow PAPI conventions).
const (
	TOT_CYC Event = iota // total cycles
	TOT_INS              // total instructions
	L1_DCA               // L1 data cache accesses
	L1_DCM               // L1 data cache misses
	L2_DCA               // L2 data cache accesses
	L2_DCM               // L2 data cache misses
	L3_DCA               // L3 data cache accesses
	L3_DCM               // L3 data cache misses
	TLB_DM               // data TLB misses
	FP_OPS               // floating point operations
)

// String returns the PAPI_* event name.
func (e Event) String() string {
	switch e {
	case TOT_CYC:
		return "PAPI_TOT_CYC"
	case TOT_INS:
		return "PAPI_TOT_INS"
	case L1_DCA:
		return "PAPI_L1_DCA"
	case L1_DCM:
		return "PAPI_L1_DCM"
	case L2_DCA:
		return "PAPI_L2_DCA"
	case L2_DCM:
		return "PAPI_L2_DCM"
	case L3_DCA:
		return "PAPI_L3_DCA"
	case L3_DCM:
		return "PAPI_L3_DCM"
	case TLB_DM:
		return "PAPI_TLB_DM"
	case FP_OPS:
		return "PAPI_FP_OPS"
	default:
		return fmt.Sprintf("PAPI_EVENT_%d", int(e))
	}
}

// Counters is an immutable snapshot of event counts.
type Counters map[Event]uint64

// Get returns the count for e (0 if absent).
func (c Counters) Get(e Event) uint64 { return c[e] }

// Add returns a copy of c with delta added to e.
func (c Counters) Add(e Event, delta uint64) Counters {
	out := make(Counters, len(c)+1)
	for k, v := range c {
		out[k] = v
	}
	out[e] += delta
	return out
}

// String renders the counters in a stable order.
func (c Counters) String() string {
	events := make([]Event, 0, len(c))
	for e := range c {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = fmt.Sprintf("%s=%d", e, c[e])
	}
	return strings.Join(parts, " ")
}

// FromHierarchy snapshots cache and TLB counters from a simulated
// hierarchy. Cycle and instruction counts come from the core model and
// are supplied by the caller via Add.
func FromHierarchy(h *cache.Hierarchy) Counters {
	c := Counters{}
	levelEvents := [][2]Event{
		{L1_DCA, L1_DCM},
		{L2_DCA, L2_DCM},
		{L3_DCA, L3_DCM},
	}
	for i := 0; i < h.Depth() && i < len(levelEvents); i++ {
		st := h.Level(i).Stats()
		c[levelEvents[i][0]] = st.Accesses
		c[levelEvents[i][1]] = st.Misses
	}
	if _, misses, ok := h.TLBStats(); ok {
		c[TLB_DM] = misses
	}
	return c
}

// CacheAccesses returns the total data-cache access count across levels,
// the metric plotted in Figure 7's right-hand panels.
func (c Counters) CacheAccesses() uint64 {
	return c[L1_DCA] + c[L2_DCA] + c[L3_DCA]
}

// MissRatio returns L1 misses over L1 accesses.
func (c Counters) MissRatio() float64 {
	if c[L1_DCA] == 0 {
		return 0
	}
	return float64(c[L1_DCM]) / float64(c[L1_DCA])
}
