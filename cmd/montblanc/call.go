package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"montblanc/internal/service"
	"montblanc/internal/service/client"
)

// runCall implements `montblanc call`: POST the named experiments to a
// running `montblanc serve` and write the response body — the wire-form
// result array — to stdout. Transient failures (transport errors, 503
// saturated, 504 timeout) are retried with capped exponential backoff
// plus full jitter, honoring the server's Retry-After ask; content
// addressing on the server makes blind retries safe, and a retry that
// lands after the original attempt's simulation finished is a cache
// hit, not a second run. Exit codes: 0 ok, 1 call failed, 2 usage.
func runCall(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("montblanc call", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the montblanc serve instance")
	optFlags := addOptionFlags(fs)
	attempts := fs.Int("attempts", 5, "total attempts including the first")
	attemptTimeout := fs.Duration("attempt-timeout", 65*time.Second, "timeout for one HTTP attempt")
	retryBudget := fs.Duration("retry-budget", 5*time.Minute, "bound on the whole call including backoff waits (0 = unbounded)")
	backoff := fs.Duration("backoff", 200*time.Millisecond, "base backoff; the wait before retry n is jittered under min(cap, base<<n)")
	backoffCap := fs.Duration("backoff-cap", 10*time.Second, "ceiling on one backoff wait (Retry-After is added on top)")
	retrySeed := fs.Uint64("retry-seed", 0, "seed for the jitter draws (a fixed seed replays the retry schedule)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: montblanc call [flags] <experiment|pattern>... | all

Calls a running 'montblanc serve' over HTTP (POST /v1/run) and writes
the JSON result array to stdout — the same bytes 'montblanc -json'
emits. Retries transport errors and 5xx responses with capped
exponential backoff + full jitter, honoring Retry-After on 503; the
server's content-addressed cache makes retries idempotent.

The experiment-option flags (-quick, -seed, -platform, -sim-workers,
-fault-* and -checkpoint-interval) are montblanc's own and go into the
request's options. The server checks them: -platform may name machines
only the server knows.

Flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	if *attempts < 1 {
		fmt.Fprintf(stderr, "montblanc call: -attempts must be >= 1, got %d\n", *attempts)
		return 2
	}

	opts, err := optFlags.options()
	if err != nil {
		fmt.Fprintln(stderr, "montblanc call:", err)
		return 2
	}
	// The server resolves globs and "all" with the same grammar as the
	// CLI and normalizes the options before anything runs.
	body, err := json.Marshal(service.RunRequest{Experiments: fs.Args(), Options: opts})
	if err != nil {
		fmt.Fprintln(stderr, "montblanc call:", err)
		return 1
	}

	c, err := client.New(client.Config{
		BaseURL:        *url,
		AttemptTimeout: *attemptTimeout,
		MaxAttempts:    *attempts,
		BaseBackoff:    *backoff,
		MaxBackoff:     *backoffCap,
		Seed:           *retrySeed,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "montblanc call:", err)
		return 2
	}

	ctx := context.Background()
	if *retryBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *retryBudget)
		defer cancel()
	}
	out, err := c.Run(ctx, body)
	if err != nil {
		fmt.Fprintln(stderr, "montblanc call:", err)
		return 1
	}
	if _, err := stdout.Write(out); err != nil {
		fmt.Fprintln(stderr, "montblanc call:", err)
		return 1
	}
	return 0
}
