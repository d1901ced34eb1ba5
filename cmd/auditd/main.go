// Command auditd serves fake-follower audits as a service, the deployment
// shape of the analytics the paper studies: audit jobs are accepted over an
// HTTP JSON API, scheduled on a bounded worker pool, and repeated requests
// answer from a TTL'd result cache (the "cached" column of Table II).
//
// Three backends are supported:
//
//	auditd -accounts davc,grossnasty              # in-process simulation
//	auditd -load pop.gob                          # genpop store snapshot
//	auditd -twitterd http://127.0.0.1:8080        # remote twitterd API
//
// Submit and poll:
//
//	curl -s -X POST localhost:8081/v1/audits?wait=60s \
//	  -d '{"target":"davc","tools":["socialbakers"]}'
//	curl -s localhost:8081/v1/audits/j00000001
//	curl -s localhost:8081/v1/stats
//
// With -monitor the daemon additionally runs the monitord subsystem:
// watched targets are re-audited continuously as low-priority background
// jobs (interactive requests preempt them) and their verdict series and
// alerts are served over /v1/watch, /v1/series/{target} and /v1/alerts:
//
//	auditd -accounts davc -monitor -watch davc:24h -churn
//	curl -s -X POST localhost:8081/v1/watch -d '{"target":"davc","cadence":"12h"}'
//	curl -s localhost:8081/v1/series/davc
//	curl -s localhost:8081/v1/alerts
//
// Observability (see docs/OPERATIONS.md): -metrics serves the registry at
// /metrics (Prometheus text) and /metrics.json — queue depth, cache
// outcomes, per-endpoint latency, and the monitord counters when -monitor
// is on — -dashboard mounts the embedded ops dashboard at /dashboard/
// (with a live alert feed when -monitor is on), and -pprof mounts
// net/http/pprof at /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/core"
	"fakeproject/internal/experiments"
	"fakeproject/internal/monitord"
	"fakeproject/internal/platform"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "auditd:", err)
		os.Exit(1)
	}
}

func run() error {
	var spec platform.Spec
	flag.StringVar(&spec.Addr, "addr", "127.0.0.1:8081", "listen address")
	flag.StringVar(&spec.Load, "load", "", "serve a store snapshot (from genpop -out) instead of building accounts")
	var (
		workers  = flag.Int("workers", 4, "worker pool size")
		queueCap = flag.Int("queue", 256, "pending-queue capacity (backpressure bound)")
		cacheTTL = flag.Duration("cache-ttl", 24*time.Hour, "result cache TTL (0 = never expires, negative = disabled)")
		accounts = flag.String("accounts", "davc,grossnasty,janrezab", "paper accounts to build (simulation backend)")
		scale    = flag.Int("scale", 50000, "max materialised followers per account (simulation backend)")
		seed     = flag.Uint64("seed", 20140301, "simulation / engine seed")
		remote   = flag.String("twitterd", "", "front a remote twitterd API at this base URL instead of an in-process store")
		monitor  = flag.Bool("monitor", false, "run the continuous-monitoring subsystem (/v1/watch, /v1/series, /v1/alerts)")
		watch    = flag.String("watch", "", "comma-separated initial watches, name[:cadence] (requires -monitor)")
		pace     = flag.Duration("monitor-pace", 2*time.Second, "wall-clock interval between monitor scheduler rounds on virtual-clock backends")
		churn    = flag.Bool("churn", false, "evolve watched targets between re-audit rounds (organic growth + churn; in-process backends only)")
	)
	spec.ObsFlags(flag.CommandLine)
	flag.Parse()
	if !*monitor && (*watch != "" || *churn) {
		// Flag-consistency errors must fire before the (potentially
		// minutes-long) backend build.
		return fmt.Errorf("-watch/-churn require -monitor")
	}

	p, err := platform.New(spec)
	if err != nil {
		return err
	}
	svc, plat, err := buildService(p, *accounts, *remote, *scale, *seed, *workers, *queueCap, *cacheTTL)
	if err != nil {
		return err
	}
	// Drain order on SIGTERM: stop intake, let requests finish, then let the
	// pool drain the queue.
	p.OnStop(svc.Shutdown)
	p.Server.WriteTimeout = 10 * time.Minute // long-poll ?wait= support

	// Even a bare audit service carries the observability surfaces next to
	// /v1/: the root mux is platform's.
	p.Mux.Handle("/", auditd.NewHandlerObserved(svc, p.Reg))

	monitorCtx, stopMonitor := context.WithCancel(context.Background())
	defer stopMonitor()
	if *monitor {
		mon, err := startMonitor(monitorCtx, svc, plat, *watch, *pace, *churn)
		if err != nil {
			return err
		}
		defer mon.Close()
		mh := monitord.NewHandlerObserved(mon, p.Reg)
		p.Mux.Handle("/v1/watch", mh)
		p.Mux.Handle("/v1/watch/", mh)
		p.Mux.Handle("/v1/series/", mh)
		p.Mux.Handle("/v1/alerts", mh)
	}

	fmt.Fprintf(os.Stderr, "auditd serving on http://%s/v1/ (tools: %s)\n",
		spec.Addr, strings.Join(svc.Tools(), ", "))
	return p.Run("auditd")
}

// backend carries the in-process backend state behind a service: the
// monitor's dynamics driver mutates the store directly, which only exists
// for the simulation and snapshot backends (store and gen are nil when the
// platform lives behind a remote twitterd).
type backend struct {
	store *twitter.Store
	gen   *population.Generator
	clock simclock.Clock
}

// buildService assembles the audit service over one of the three backends.
func buildService(p *platform.Process, accounts, remote string, scale int, seed uint64, workers, queueCap int, cacheTTL time.Duration) (*auditd.Service, *backend, error) {
	base := auditd.Config{
		Workers:   workers,
		QueueCap:  queueCap,
		CacheTTL:  cacheTTL,
		ToolOrder: auditd.StandardToolOrder,
	}

	switch {
	case remote != "":
		// Remote twitterd: engines crawl over HTTP, one bearer token per
		// (tool, worker) so budgets scale with the pool.
		clock := simclock.Real{}
		newClient := func(tool string, worker int) twitterapi.Client {
			token := fmt.Sprintf("auditd-%s-w%d", tool, worker)
			return twitterapi.NewHTTPClient(remote, token, clock)
		}
		base.Clock = clock
		base.Tools = auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: seed})
		fmt.Fprintf(os.Stderr, "backend: remote twitterd at %s\n", remote)
		svc, err := auditd.New(base)
		return svc, &backend{clock: clock}, err

	case p.Spec.Load != "":
		// Snapshot: in-process store, latency-free direct clients (rate
		// limits still apply per worker token set). genpop builds its
		// populations on the virtual epoch clock, so the loaded store is
		// bound to the same epoch — otherwise every 2014-era account would
		// read as dormant against the real wall clock.
		clock := simclock.NewVirtualAtEpoch()
		store, err := p.OpenStore(clock)
		if err != nil {
			return nil, nil, err
		}
		apiSvc := twitterapi.NewService(store)
		newClient := func(tool string, worker int) twitterapi.Client {
			return twitterapi.NewDirectClient(apiSvc, clock, twitterapi.ClientConfig{
				Tokens: 50,
				Seed:   seed + uint64(worker),
			})
		}
		base.Clock = clock
		base.Tools = auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: seed})
		fmt.Fprintf(os.Stderr, "backend: snapshot %s\n", p.Spec.Load)
		svc, err := auditd.New(base)
		return svc, &backend{
			store: store,
			gen:   population.NewGenerator(store, seed+77),
			clock: clock,
		}, err

	default:
		// In-process simulation on the virtual clock: Table II latency
		// modelling stays virtual, so the service itself answers fast.
		want := splitAccounts(accounts)
		var only []string
		for _, acct := range core.PaperTestbed() {
			if want[acct.ScreenName] {
				only = append(only, acct.ScreenName)
			}
		}
		if len(only) == 0 {
			return nil, nil, fmt.Errorf("no known accounts in %q (see the paper testbed)", accounts)
		}
		fmt.Fprintf(os.Stderr, "backend: building simulation for %s...\n", strings.Join(only, ", "))
		sim, err := experiments.NewSimulation(experiments.SimConfig{
			Seed:     seed,
			ScaleCap: scale,
			Only:     only,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("building simulation: %w", err)
		}
		svc, err := sim.NewAuditService(base)
		return svc, &backend{store: sim.Store, gen: sim.Gen, clock: sim.Clock}, err
	}
}

// startMonitor assembles the monitord subsystem: initial watches from the
// -watch list, an optional churn hook evolving each watched target one
// simulated day per re-audit round, and the paced scheduler goroutine.
func startMonitor(ctx context.Context, svc *auditd.Service, plat *backend, watchList string, pace time.Duration, churn bool) (*monitord.Monitor, error) {
	cfg := monitord.Config{Service: svc, Clock: plat.clock}
	if churn {
		if plat.store == nil {
			return nil, fmt.Errorf("-churn needs an in-process backend (simulation or snapshot)")
		}
		drivers := map[string]*population.Driver{}
		// Churn runs in BeforeRound so the round's audits observe one
		// consistent post-churn list (OnRound would race the in-flight
		// re-audits against the day's mutations).
		cfg.BeforeRound = func(target string) {
			driver, ok := drivers[target]
			if !ok {
				id, err := plat.store.LookupName(target)
				if err != nil {
					return
				}
				count, _ := plat.store.FollowerCount(id)
				driver = population.NewDriver(plat.gen, id, population.DefaultChurnScript(count))
				drivers[target] = driver
			}
			if _, err := driver.AdvanceDay(); err != nil {
				fmt.Fprintf(os.Stderr, "auditd: churn on %s: %v\n", target, err)
			}
		}
	}
	mon, err := monitord.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, spec := range strings.Split(watchList, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		name, cadence := spec, time.Duration(0)
		if base, rest, ok := strings.Cut(spec, ":"); ok {
			d, err := time.ParseDuration(rest)
			if err != nil {
				return nil, fmt.Errorf("bad -watch cadence in %q: %w", spec, err)
			}
			name, cadence = base, d
		}
		if err := mon.Watch(monitord.WatchSpec{Target: name, Cadence: cadence}); err != nil {
			return nil, fmt.Errorf("registering watch %q: %w", spec, err)
		}
	}
	go func() {
		if err := mon.Run(ctx, pace); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "auditd: monitor loop: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "monitor: running (pace %v, churn %v)\n", pace, churn)
	return mon, nil
}

func splitAccounts(list string) map[string]bool {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	return want
}
