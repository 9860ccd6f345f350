// Package montblanc reproduces "Performance Analysis of HPC Applications
// on Low-Power Embedded Platforms" (Stanisic et al., DATE 2013): the
// Mont-Blanc project's characterization of ARM-based platforms against
// x86 servers, from single-node energy ratios through cluster-scale
// congestion pathologies to auto-tuned convolution kernels.
//
// Experiments execute on a deterministic worker pool
// (internal/runner): each renders into a private buffer and results
// are emitted in ID order, so `montblanc -parallel N all` produces the
// same bytes for any N. The driver also accepts several experiment IDs
// or glob patterns per invocation (`montblanc 'fig3*' table2`) and a
// -json mode that emits structured results (id, title, seconds,
// output, error) for downstream tooling. See internal/runner/RUNNER.md
// for the architecture.
//
// Machines are data: internal/platform holds a registry of
// serializable specs (the paper's four platforms plus successor Arm
// generations calibrated from the related work), listed by `montblanc
// platforms` and extensible at runtime from JSON files via `montblanc
// -platform-file`. The sweep* experiment family runs the Table II
// workload matrix and energy-to-solution comparison across every
// registered platform (Table II itself is the two-platform case of the
// same sweep); -platform restricts the sweep set. PLATFORMS.md
// documents every spec's calibration sources.
//
// Energy is state-resolved: internal/power models each machine as a
// Profile of per-state watts (idle / compute / memory / communication),
// with the paper's constant §III.C envelope as the uniform special
// case — whole-run accounting still charges the full envelope, so the
// historical Table II energy ratios are unchanged. A spec's optional
// "power" JSON section ({"idle_watts", "memory_watts", "comm_watts",
// optional "compute_watts" defaulting to "watts"}) carries the
// calibrated draw; internal/trace integrates a profile over per-rank
// state intervals (EnergyByState), turning Extrae-style traces into
// power traces, and the energy-phases experiment runs a phased
// mini-app on every registered platform to split joules by execution
// state. A uniform profile reproduces the constant model exactly.
//
// The simulator core (internal/simmpi) is a deterministic discrete-
// event engine: an indexed min-heap commits operations in global
// (virtual time, rank) order at O(log ranks) per event with an
// allocation-free hot path, so the scale-ranks experiment and the
// BenchmarkSimMPI* family can replay the Mont-Blanc follow-on regimes
// (hundreds to 10240 ranks) in seconds. It has one commit loop: a
// conservative-parallel scheduler was measured against it and removed
// (the decision record is in SIMMPI.md). internal/simmpi/SIMMPI.md
// documents the scheduler design and its determinism invariants; the
// golden files under internal/experiments/testdata pin the quick-suite
// bytes to the seed scheduler's output. A traced run records straight
// into a rank-major trace: each rank appends to its own start-ordered
// interval list, a collective taking its slot when it begins, and the
// commit loop appends the communication log in commit order, so no
// trace is copied, sorted or regrouped (the order invariants and why
// every consumer's output is unchanged are in the internal/trace
// package doc).
//
// The memory side (internal/cache behind internal/mem) mirrors that
// design: strided sweeps run on a batched engine (Hierarchy.AccessRun —
// translation once per page, set machinery once per line — and
// Hierarchy.AccessPass, which walks a contiguous load sweep one cache
// set at a time, accounting the misses a set is certain to take and a
// fresh hierarchy's fills, the TLB's included, in closed form, and from
// each set's hits and misses proves what the passes after it do, either
// repeating the pass or hitting at the level it filled, so that they
// are replayed, not simulated) with the element-at-a-time path retained
// as the bit-exact reference, pinned by equivalence property suites and
// AllocsPerRun guards. Every scale-membench, locality and fig6 cell and
// every fig7 variant starts from a reset hierarchy, one per platform.
// The scale-membench experiment and the BenchmarkMembench* family cover
// the related-work working sets (hundreds of MB) the scalar simulator
// could not afford;
// `montblanc -cpuprofile` / `-memprofile` wrap any run in runtime/pprof
// collectors. internal/cache/CACHE.md documents the engine and proves
// its rules.
//
// Experiments are also served: `montblanc serve` (internal/service)
// exposes the whole registry over HTTP/JSON with a content-addressed
// result cache in front of the runner pool. The determinism suite
// proves every experiment is a pure function of its Options plus the
// resolved platform specs, so a Result is stored under the SHA-256 of
// that canonical request (experiments.CacheKey) and replayed verbatim
// — byte-identical — for every later identical request; singleflight
// deduplication makes N concurrent identical requests cost one
// simulation. Requests may carry inline machine specs, resolved
// request-scoped against the registry (platform.Resolver) without
// registering anything. One options type, experiments.Options, is the
// CLI's flags, the /v1/run request's "options" object and the input of
// the cache key, and Options.Normalize is the one place options are
// checked. SERVICE.md documents the endpoints, schemas, cache-key
// recipe and /metrics fields.
//
// Determinism rules are enforced statically: tools/detlint is a
// go/analysis-style multichecker (runnable standalone or via `go vet
// -vettool`) whose four analyzers encode the byte-identity contract —
// maprange (no map-iteration order in output; collect-then-sort is
// recognized), wallclock (no time.Now/os.Getenv in deterministic
// packages; timing layers exempted by detlint.json), seededrand (no
// math/rand or crypto/rand; use internal/xrand with an explicit
// seed), and floatorder (no FP accumulation in map or goroutine
// order, since IEEE-754 addition is not associative). Suppressions
// are `//detlint:allow <analyzer> -- <reason>` directives; reasons
// are mandatory and stale directives are themselves findings. CI
// fails on any unsuppressed diagnostic. tools/detlint/DETLINT.md
// documents the analyzers, directive syntax and package policy.
//
// See ROADMAP.md for the architecture and open work, and cmd/montblanc
// for the experiment driver.
package montblanc
