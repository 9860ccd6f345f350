package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"montblanc/internal/experiments"
	"montblanc/internal/fault"
)

// optionFlags are the experiment-option flags: -quick, -seed,
// -platform, -fault-* and -checkpoint-interval. montblanc
// and montblanc call both register them through addOptionFlags, so the
// two take the same names, usage text and checks.
type optionFlags struct {
	fs  *flag.FlagSet // the command line they are parsed from
	own *flag.FlagSet // the option flags alone, to tell them apart

	quick                                  *bool
	seed, faultSeed                        *uint64
	platforms, faultFile                   *string
	mtbf, downtime, horizon, checkpointInt *float64
}

func addOptionFlags(fs *flag.FlagSet) *optionFlags {
	own := flag.NewFlagSet("", flag.ContinueOnError)
	f := &optionFlags{
		fs:            fs,
		own:           own,
		quick:         own.Bool("quick", false, "run reduced-size instances"),
		seed:          own.Uint64("seed", 0, "override the default deterministic seed (0 = default)"),
		platforms:     own.String("platform", "", "comma-separated registered platforms the sweep* experiments cover (default: all)"),
		faultFile:     own.String("fault-file", "", "JSON fault schedule for the resilience* experiments (see FAULT.md)"),
		mtbf:          own.Float64("fault-mtbf", 0, "per-node mean time between failures in seconds for generated crashes (resilience* experiments)"),
		downtime:      own.Float64("fault-downtime", 0, "crash-to-restart downtime in seconds (0 = schedule default)"),
		horizon:       own.Float64("fault-horizon", 0, "bound on generated crash times in seconds (0 = the experiment's own estimate)"),
		faultSeed:     own.Uint64("fault-seed", 0, "seed for the generated crash draws"),
		checkpointInt: own.Float64("checkpoint-interval", 0, "pin the resilience checkpoint interval in seconds (must be > 0 when set)"),
	}
	own.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, fl.Usage) })
	return f
}

// given returns the option flags set on the command line, in name
// order.
func (f *optionFlags) given() []string {
	var names []string
	f.fs.Visit(func(fl *flag.Flag) {
		if f.own.Lookup(fl.Name) != nil {
			names = append(names, fl.Name)
		}
	})
	return names
}

// options assembles the parsed flags into experiments.Options. The
// fault flags build one schedule: -fault-file loads a JSON spec and the
// scalar flags fill or override its fields. Options.Normalize checks
// the result — in this process or, for call, on the server — except
// -checkpoint-interval: zero elsewhere means "unset", so an explicit
// zero is refused here rather than silently falling back to the
// default grid.
func (f *optionFlags) options() (experiments.Options, error) {
	o := experiments.Options{Quick: *f.quick, Seed: *f.seed}
	for _, name := range strings.Split(*f.platforms, ",") {
		if name = strings.TrimSpace(name); name != "" {
			o.Platforms = append(o.Platforms, name)
		}
	}
	given := f.given()
	if !slices.ContainsFunc(given, func(n string) bool {
		return strings.HasPrefix(n, "fault-") || n == "checkpoint-interval"
	}) {
		return o, nil
	}
	has := func(name string) bool { return slices.Contains(given, name) }
	spec := &fault.Spec{}
	if has("fault-file") {
		loaded, err := fault.LoadSpecFile(*f.faultFile)
		if err != nil {
			return o, err
		}
		spec = loaded
	}
	if has("fault-mtbf") {
		spec.MTBFSeconds = *f.mtbf
	}
	if has("fault-downtime") {
		spec.DowntimeSeconds = *f.downtime
	}
	if has("fault-horizon") {
		spec.HorizonSeconds = *f.horizon
	}
	if has("fault-seed") {
		spec.Seed = *f.faultSeed
	}
	if has("checkpoint-interval") {
		if !(*f.checkpointInt > 0) {
			return o, fmt.Errorf("-checkpoint-interval must be > 0 seconds, got %v", *f.checkpointInt)
		}
		spec.CheckpointIntervalSeconds = *f.checkpointInt
	}
	o.Fault = spec
	return o, nil
}
