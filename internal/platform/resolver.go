package platform

import (
	"fmt"
	"sort"
)

// Resolver answers platform lookups against an overlay of extra specs
// on top of the global registry, without registering anything. It is
// the request-scoped counterpart of Register/Lookup: a service request
// carrying inline machine specs resolves them through a Resolver, so
// concurrent requests with clashing machine names never fight over the
// process-wide registry and nothing leaks past the request.
//
// An extra spec may shadow a registered name: within its Resolver it
// wins every lookup, which is exactly the "same name, tweaked machine"
// experiment the global registry forbids. The zero-value Resolver (or
// one built from no specs) is a pure view of the registry.
type Resolver struct {
	extra map[string]Spec
	order []string // extra names in insertion order
}

// NewResolver builds a resolver over the given extra specs. Every spec
// is validated and deep-copied (later caller mutations never show
// through); duplicate names within the batch are rejected just like
// registerBatch rejects them, since the second spec would silently
// shadow the first.
func NewResolver(extra []Spec) (*Resolver, error) {
	r := &Resolver{extra: make(map[string]Spec, len(extra))}
	for _, s := range extra {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.extra[s.Name]; dup {
			return nil, fmt.Errorf("platform: duplicate inline spec %q", s.Name)
		}
		r.extra[s.Name] = s.clone()
		r.order = append(r.order, s.Name)
	}
	return r, nil
}

// LookupSpec returns the named spec — the resolver's extra spec when
// one shadows the name, the registered spec otherwise. The result is a
// deep copy either way.
func (r *Resolver) LookupSpec(name string) (Spec, bool) {
	if r != nil {
		if s, ok := r.extra[name]; ok {
			return s.clone(), true
		}
	}
	return LookupSpec(name)
}

// Names returns every resolvable name — the union of the registry and
// the extra specs — in sorted order, matching the contract of the
// package-level Names.
func (r *Resolver) Names() []string {
	names := Names()
	if r == nil || len(r.extra) == 0 {
		return names
	}
	seen := make(map[string]bool, len(names)+len(r.extra))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range r.order {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	sort.Strings(names)
	return names
}
