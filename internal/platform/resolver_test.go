package platform

import (
	"testing"
)

// resolverSpec returns a valid spec derived from a builtin, renamed and
// with a recognizably different envelope.
func resolverSpec(t *testing.T, name string, watts float64) Spec {
	t.Helper()
	s, ok := LookupSpec("Snowball")
	if !ok {
		t.Fatal("builtin Snowball missing")
	}
	s.Name = name
	s.PowerName = ""
	s.Power = nil
	s.Watts = watts
	return s
}

func TestResolverViewOfRegistry(t *testing.T) {
	r, err := NewResolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Names()), len(Names()); got != want {
		t.Fatalf("empty resolver sees %d names, registry has %d", got, want)
	}
	s, ok := r.LookupSpec("Snowball")
	if !ok {
		t.Fatal("Snowball not resolvable")
	}
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Snowball" {
		t.Errorf("LookupSpec then Build built %q", p.Name)
	}
	// The zero value behaves like the empty resolver.
	var zero *Resolver
	if _, ok := zero.LookupSpec("Snowball"); !ok {
		t.Error("nil resolver cannot see the registry")
	}
}

func TestResolverExtraDoesNotTouchRegistry(t *testing.T) {
	before := len(Names())
	extra := resolverSpec(t, "ResolverOnly", 7)
	r, err := NewResolver([]Spec{extra})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.LookupSpec("ResolverOnly"); !ok {
		t.Fatal("extra spec not resolvable")
	}
	if _, ok := LookupSpec("ResolverOnly"); ok {
		t.Fatal("inline spec leaked into the global registry")
	}
	if len(Names()) != before {
		t.Fatalf("registry grew from %d to %d names", before, len(Names()))
	}
	// The union view contains both worlds.
	found := false
	for _, n := range r.Names() {
		if n == "ResolverOnly" {
			found = true
		}
	}
	if !found {
		t.Error("Names() missing the extra spec")
	}
	if got, want := len(r.Names()), before+1; got != want {
		t.Errorf("union has %d names, want %d", got, want)
	}
}

func TestResolverShadowsRegisteredName(t *testing.T) {
	shadow := resolverSpec(t, "Snowball", 123)
	r, err := NewResolver([]Spec{shadow})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := r.LookupSpec("Snowball")
	if !ok || s.Watts != 123 {
		t.Fatalf("shadowing spec not returned: ok=%v watts=%g", ok, s.Watts)
	}
	// The registry still holds the builtin.
	orig, _ := LookupSpec("Snowball")
	if orig.Watts == 123 {
		t.Fatal("shadow wrote through into the registry")
	}
	// Shadowing does not duplicate the name in the union.
	count := 0
	for _, n := range r.Names() {
		if n == "Snowball" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("Snowball appears %d times in Names()", count)
	}
}

func TestResolverRejectsInvalidAndDuplicate(t *testing.T) {
	bad := resolverSpec(t, "Bad", -1) // non-positive envelope
	if _, err := NewResolver([]Spec{bad}); err == nil {
		t.Error("invalid spec accepted")
	}
	a := resolverSpec(t, "Twin", 5)
	b := resolverSpec(t, "Twin", 6)
	if _, err := NewResolver([]Spec{a, b}); err == nil {
		t.Error("duplicate inline names accepted")
	}
}

func TestResolverUnknownName(t *testing.T) {
	r, _ := NewResolver(nil)
	if _, ok := r.LookupSpec("NoSuchMachine"); ok {
		t.Error("unknown name resolved")
	}
}

func TestResolverInsulatedFromCallerMutation(t *testing.T) {
	extra := resolverSpec(t, "Mutable", 9)
	r, err := NewResolver([]Spec{extra})
	if err != nil {
		t.Fatal(err)
	}
	extra.Watts = 999
	if len(extra.Caches) > 0 {
		extra.Caches[0].Name = "hacked"
	}
	s, _ := r.LookupSpec("Mutable")
	if s.Watts != 9 {
		t.Errorf("resolver saw caller mutation: watts %g", s.Watts)
	}
	if len(s.Caches) > 0 && s.Caches[0].Name == "hacked" {
		t.Error("resolver shares cache slice with caller")
	}
}
