// Package topo models hardware topologies — machines, sockets, caches,
// cores and processing units — in the style of hwloc, and renders them
// as the lstopo-like diagrams shown in Figure 2 of the paper.
package topo

import (
	"fmt"
	"strings"

	"montblanc/internal/units"
)

// Kind identifies the type of a topology object.
type Kind int

// Topology object kinds, outermost first.
const (
	Machine Kind = iota
	Socket
	Cache
	Core
	PU // processing unit (hardware thread)
)

// String returns the hwloc-style name of the kind.
func (k Kind) String() string {
	switch k {
	case Machine:
		return "Machine"
	case Socket:
		return "Socket"
	case Cache:
		return "Cache"
	case Core:
		return "Core"
	case PU:
		return "PU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Object is a node in the topology tree.
type Object struct {
	Kind     Kind
	Index    int   // physical index (P#n)
	Size     int64 // bytes: RAM for Machine, capacity for Cache
	Level    int   // cache level (1..3) when Kind == Cache
	Children []*Object
}

// Label returns the human-readable box label used in renderings.
func (o *Object) Label() string {
	switch o.Kind {
	case Machine:
		return fmt.Sprintf("Machine (%s)", units.Bytes(o.Size))
	case Socket:
		return fmt.Sprintf("Socket P#%d", o.Index)
	case Cache:
		return fmt.Sprintf("L%d (%s)", o.Level, units.Bytes(o.Size))
	case Core:
		return fmt.Sprintf("Core P#%d", o.Index)
	case PU:
		return fmt.Sprintf("PU P#%d", o.Index)
	default:
		return o.Kind.String()
	}
}

// Add appends child objects and returns o for chaining.
func (o *Object) Add(children ...*Object) *Object {
	o.Children = append(o.Children, children...)
	return o
}

// Walk visits o and all descendants depth-first, calling fn with the
// depth of each object (0 for o itself).
func (o *Object) Walk(fn func(obj *Object, depth int)) {
	var rec func(obj *Object, depth int)
	rec = func(obj *Object, depth int) {
		fn(obj, depth)
		for _, c := range obj.Children {
			rec(c, depth+1)
		}
	}
	rec(o, 0)
}

// Count returns the number of objects of the given kind in the subtree.
func (o *Object) Count(kind Kind) int {
	n := 0
	o.Walk(func(obj *Object, _ int) {
		if obj.Kind == kind {
			n++
		}
	})
	return n
}

// FindCaches returns all cache objects at the given level.
func (o *Object) FindCaches(level int) []*Object {
	var out []*Object
	o.Walk(func(obj *Object, _ int) {
		if obj.Kind == Cache && obj.Level == level {
			out = append(out, obj)
		}
	})
	return out
}

// PUs returns all processing units in physical index order of discovery.
func (o *Object) PUs() []*Object {
	var out []*Object
	o.Walk(func(obj *Object, _ int) {
		if obj.Kind == PU {
			out = append(out, obj)
		}
	})
	return out
}

// Render draws the topology as an indented tree of labelled boxes,
// approximating the lstopo output reproduced in Figure 2.
func (o *Object) Render() string {
	var b strings.Builder
	o.Walk(func(obj *Object, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s+-- %s\n", indent, obj.Label())
	})
	return b.String()
}

// Validate checks structural invariants of the topology tree:
// machines at the root only, PUs as leaves only, cache levels
// descending toward the leaves, and unique PU physical indices.
func (o *Object) Validate() error {
	if o.Kind != Machine {
		return fmt.Errorf("topo: root must be a Machine, got %v", o.Kind)
	}
	seenPU := map[int]bool{}
	var err error
	var rec func(obj *Object, minLevel int)
	rec = func(obj *Object, cacheCeil int) {
		if err != nil {
			return
		}
		switch obj.Kind {
		case Machine:
			if obj != o {
				err = fmt.Errorf("topo: nested Machine object")
				return
			}
		case PU:
			if len(obj.Children) != 0 {
				err = fmt.Errorf("topo: PU P#%d has children", obj.Index)
				return
			}
			if seenPU[obj.Index] {
				err = fmt.Errorf("topo: duplicate PU index P#%d", obj.Index)
				return
			}
			seenPU[obj.Index] = true
		case Cache:
			if obj.Level < 1 || obj.Level > 4 {
				err = fmt.Errorf("topo: cache level %d out of range", obj.Level)
				return
			}
			if cacheCeil > 0 && obj.Level >= cacheCeil {
				err = fmt.Errorf("topo: L%d nested under L%d", obj.Level, cacheCeil)
				return
			}
			if obj.Size <= 0 {
				err = fmt.Errorf("topo: L%d cache with non-positive size", obj.Level)
				return
			}
			cacheCeil = obj.Level
		}
		for _, c := range obj.Children {
			rec(c, cacheCeil)
		}
	}
	rec(o, 0)
	return err
}

// NewMachine returns a Machine root with the given RAM size in bytes.
func NewMachine(ram int64) *Object { return &Object{Kind: Machine, Size: ram} }

// NewSocket returns a Socket with physical index idx.
func NewSocket(idx int) *Object { return &Object{Kind: Socket, Index: idx} }

// NewCache returns a cache object of the given level and capacity.
func NewCache(level int, size int64) *Object {
	return &Object{Kind: Cache, Level: level, Size: size}
}

// NewCore returns a Core with physical index idx.
func NewCore(idx int) *Object { return &Object{Kind: Core, Index: idx} }

// NewPU returns a processing unit with physical index idx.
func NewPU(idx int) *Object { return &Object{Kind: PU, Index: idx} }
