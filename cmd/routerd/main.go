// Command routerd fronts a ring of twitterd nodes with the routing tier
// from internal/router: ownership-routed single-account endpoints,
// scatter-gathered users/lookup, per-backend health ejection with probe
// readmission, and hedged reads against each range's replica holder.
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
// tier is invisible byte-for-byte (the cross-topology differential tests
// hold it to that).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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
	flag.IntVar(&spec.RingSlots, "ring-slots", router.DefaultSlots, "ring slot count (must match the backends' -ring-slots)")
	var (
		backends = flag.String("backends", "", "comma-separated twitterd base URLs in ring order (required)")

		hedgeDelay = flag.Duration("hedge-delay", 0, "fixed hedge delay; 0 = adaptive (upstream p99), negative = hedging off")
		hedgeMin   = flag.Duration("hedge-min", 2*time.Millisecond, "lower clamp of the adaptive hedge delay")
		hedgeMax   = flag.Duration("hedge-max", 100*time.Millisecond, "upper clamp of the adaptive hedge delay")

		failThreshold = flag.Int("fail-threshold", 3, "consecutive hard failures that eject a backend")
		probeInterval = flag.Duration("probe-interval", time.Second, "readmission probe period for ejected backends")
	)
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
	rt, err := router.New(router.Config{
		Backends:      bases,
		Slots:         spec.RingSlots,
		Clock:         simclock.Real{},
		Registry:      p.Reg,
		HedgeDelay:    *hedgeDelay,
		HedgeMin:      *hedgeMin,
		HedgeMax:      *hedgeMax,
		FailThreshold: *failThreshold,
		ProbeInterval: *probeInterval,
	})
	if err != nil {
		return err
	}
	p.OnStop(func(context.Context) error { rt.Close(); return nil })
	p.Mux.Handle("/", rt)
	p.Healthz()

	fmt.Fprintf(os.Stderr, "routing for %d backends on http://%s/1.1/\n", len(bases), spec.Addr)
	return p.Run("routerd")
}
