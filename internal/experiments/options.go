package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"montblanc/internal/fault"
	"montblanc/internal/platform"
)

// OptionError is an option Normalize rejects. Option is the offending
// /v1/run field — "platforms", "fault" or "specs" — so the service can
// classify the error and the CLI can name its flag.
type OptionError struct {
	Option string
	Err    error
}

func (e *OptionError) Error() string { return e.Err.Error() }

// Normalize is the one authority on option validity: montblanc and the
// service run it on the options they build, and CacheKey applies the
// same checks. It validates Fault and the inline Specs, and checks that
// every named platform resolves; options that pass come back as given.
// Its errors are *OptionError.
func (o Options) Normalize() (Options, error) {
	_, err := o.resolve(false)
	return o, err
}

// resolve applies Normalize's checks and resolves the platform set to
// specs: the named platforms in request order or, when none are named
// and all is set, every resolvable platform sorted by name. It is the
// one platform-set expansion; CanonicalJSON and sweepPlatforms share it.
func (o Options) resolve(all bool) ([]platform.Spec, error) {
	if o.Fault != nil {
		if err := o.Fault.Validate(); err != nil {
			return nil, &OptionError{"fault", err}
		}
	}
	// The global registry overlaid with the inline specs; with none it
	// sees exactly the machines the package-level lookups see.
	r, err := platform.NewResolver(o.Specs)
	if err != nil {
		return nil, &OptionError{"specs", err}
	}
	names := o.Platforms
	if len(names) == 0 && all {
		names = r.Names()
	}
	specs := make([]platform.Spec, 0, len(names))
	for _, n := range names {
		s, ok := r.LookupSpec(n)
		if !ok {
			return nil, &OptionError{"platforms", fmt.Errorf("unknown platform %q", n)}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// canonicalRequest is the exact document hashed into a cache key. The
// field set and order are part of the service's cache contract
// (SERVICE.md): every knob that can change an experiment's output is
// present — always, with zero values explicit, so "unset" and
// "explicitly default" canonicalize identically — and the platform set
// is resolved down to full Spec JSON, so two requests naming the same
// platform but meaning different machines (an inline shadow, a
// different registry) never share a key.
type canonicalRequest struct {
	Experiment string          `json:"experiment"`
	Quick      bool            `json:"quick"`
	Seed       uint64          `json:"seed"`
	Platforms  []platform.Spec `json:"platforms"`
	// Fault is the user fault schedule, or null for the defaults. It is
	// deliberately key material — fault-injected results must never
	// replay from a failure-free run's cache entry.
	Fault *fault.Spec `json:"fault"`
}

// CanonicalJSON renders the request (id, o) in canonical wire form:
// fixed field order, defaults explicit, and the platform set expanded
// to resolved specs in request order (an empty Platforms list means
// every resolvable name, sorted — the same expansion sweepPlatforms
// applies). The determinism suite guarantees an experiment's output is
// a pure function of exactly these bytes, which is what makes the
// service's content-addressed cache sound: equal canonical bytes imply
// equal output. (The converse need not hold — two different platform
// sets may render identically for an experiment that ignores them;
// that costs a duplicate cache entry, never a wrong answer.)
func CanonicalJSON(id string, o Options) ([]byte, error) {
	specs, err := o.resolve(true)
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalRequest{
		Experiment: id,
		Quick:      o.Quick,
		Seed:       o.Seed,
		Platforms:  specs,
		Fault:      o.Fault,
	})
}

// CacheKey returns the content address of one experiment execution:
// the hex SHA-256 of CanonicalJSON(id, o). Results stored under this
// key may be replayed for any request that canonicalizes to the same
// bytes.
func CacheKey(id string, o Options) (string, error) {
	doc, err := CanonicalJSON(id, o)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:]), nil
}
