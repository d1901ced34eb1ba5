// Command routerd fronts a ring of twitterd nodes with the routing tier
// from internal/router: ownership-routed single-account endpoints,
// users/show and users/lookup forwarded whole to any one node, per-backend
// health ejection with probe readmission, and hedged reads against each
// range's replica holder.
//
// Its only settings are the listen address, the backends in ring order and
// the observability flags every binary shares. The ring's slot count, the
// ejection threshold, the probe period and the hedge-delay clamps are
// constants of internal/router, so routerd and its twitterd members cannot
// disagree on them.
//
// A two-node ring on one machine (see docs/OPERATIONS.md for the full
// runbook):
//
//	genpop -followers 200000 -out snap.bin
//	twitterd -addr :8081 -load snap.bin -ring-index 0 -ring-nodes 2 &
//	twitterd -addr :8082 -load snap.bin -ring-index 1 -ring-nodes 2 &
//	routerd  -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl 'http://localhost:8080/1.1/followers/ids.json?user_id=1&cursor=-1'
//
// Clients talk to routerd exactly as they would to a single twitterd — the
// tier is invisible byte-for-byte (the wire observer of the store oracle
// holds it to that, in internal/router's tests).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"fakeproject/internal/platform"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "routerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var spec platform.Spec
	flag.StringVar(&spec.Addr, "addr", "127.0.0.1:8080", "listen address")
	backends := flag.String("backends", "", "comma-separated twitterd base URLs in ring order (required)")
	spec.ObsFlags(flag.CommandLine)
	flag.Parse()

	var bases []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		return fmt.Errorf("-backends is required (comma-separated twitterd base URLs)")
	}

	p, err := platform.New(spec)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{Backends: bases, Clock: simclock.Real{}, Registry: p.Reg})
	if err != nil {
		return err
	}
	p.OnStop(func(context.Context) error { rt.Close(); return nil })
	p.Mux.Handle("/", rt)
	p.Healthz()

	fmt.Fprintf(os.Stderr, "routing for %d backends on http://%s/1.1/\n", len(bases), spec.Addr)
	return p.Run("routerd")
}
