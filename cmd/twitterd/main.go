// Command twitterd serves the simulated Twitter API over HTTP on the real
// clock, with the paper testbed (or a subset) as its population — a live
// sandbox for exercising the rate-limited endpoints with curl or the
// HTTPClient:
//
//	twitterd -addr :8080 -accounts davc,PC_Chiambretti
//	curl -H 'Authorization: Bearer demo' \
//	  'http://localhost:8080/1.1/followers/ids.json?screen_name=davc&cursor=-1'
//
// Rate limits follow Table I per bearer token; exhausted budgets return 429
// with a Retry-After header, exactly like api.twitter.com/1.1.
//
// Observability (see docs/OPERATIONS.md): -metrics serves the registry at
// /metrics (Prometheus text) and /metrics.json, -dashboard mounts the
// embedded ops dashboard at /dashboard/, -pprof mounts net/http/pprof at
// /debug/pprof/.
//
// Durability: -wal-dir runs the store on a write-ahead log — every mutation
// is persisted before it is acknowledged (per the -fsync policy) and a
// restart recovers the population from the newest snapshot plus the log
// tail. -load seeds a fresh WAL directory from a genpop snapshot.
//
// Multi-node: -ring-index/-ring-nodes boot the daemon as one member of a
// partitioned ring behind routerd (see docs/OPERATIONS.md). The slot count
// is router.DefaultSlots on every member and in routerd alike. The node
// loads every record and name from the -load snapshot but materialises
// heavy target state only for the slot ranges it owns or replicates;
// /healthz answers readiness probes and /admin/snapshot streams a
// canonical range snapshot for ownership transfer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fakeproject/internal/core"
	"fakeproject/internal/platform"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "twitterd:", err)
		os.Exit(1)
	}
}

func run() error {
	var spec platform.Spec
	flag.StringVar(&spec.Addr, "addr", "127.0.0.1:8080", "listen address")
	accounts := flag.String("accounts", "davc,grossnasty,janrezab", "comma-separated paper accounts to build")
	scale := flag.Int("scale", 50000, "max materialised followers per account")
	flag.Uint64Var(&spec.Seed, "seed", 20140301, "population seed")
	flag.StringVar(&spec.Load, "load", "", "serve a store snapshot (from genpop -out) instead of building accounts")

	spec.ObsFlags(flag.CommandLine)

	flag.StringVar(&spec.WALDir, "wal-dir", "", "durable mode: write-ahead log directory (recovered on boot; see docs/OPERATIONS.md)")
	flag.StringVar(&spec.Fsync, "fsync", "interval", "WAL fsync policy: always, interval, off (with -wal-dir)")
	flag.Uint64Var(&spec.CompactEvery, "compact-every", 100000, "compact the WAL every N records past the newest snapshot (0 = never; with -wal-dir)")

	flag.IntVar(&spec.RingIndex, "ring-index", -1, "multi-node: this node's ring position (requires -ring-nodes and -load)")
	flag.IntVar(&spec.RingNodes, "ring-nodes", 0, "multi-node: total nodes in the ring")
	flag.BoolVar(&spec.NoLimits, "no-limits", false, "disable the Table I rate limits (load and smoke runs)")
	flag.Parse()

	clock := simclock.Real{}
	p, err := assemble(spec, clock, func(store *twitter.Store) error {
		return buildAccounts(store, clock, *accounts, *scale, spec.Seed)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving on http://%s/1.1/ (try followers/ids.json, users/lookup.json, users/show.json, statuses/user_timeline.json)\n",
		spec.Addr)
	return p.Run("twitterd")
}

// assemble builds the daemon's process from spec: the store source, the
// population (populate runs when no -load was given and the source came
// back empty — a fresh store or a fresh WAL directory) and the API plane on
// the root mux. Factored out of run so the smoke test boots the exact
// production assembly.
func assemble(spec platform.Spec, clock simclock.Clock, populate func(*twitter.Store) error) (*platform.Process, error) {
	p, err := platform.New(spec)
	if err != nil {
		return nil, err
	}
	store, err := p.OpenStore(clock)
	if err != nil {
		return nil, err
	}
	if spec.Load == "" && store.UserCount() == 0 {
		if err := populate(store); err != nil {
			_ = p.Stop(context.Background()) // seals the WAL segment the build wrote into
			return nil, err
		}
	}
	p.ServeAPI(store, clock)
	return p, nil
}

// buildAccounts materialises the requested paper-testbed accounts into the
// store (which may be WAL-backed — the build then doubles as the log's
// genesis records).
func buildAccounts(store *twitter.Store, clock simclock.Clock, accounts string, scale int, seed uint64) error {
	gen := population.NewGenerator(store, seed)
	want := map[string]bool{}
	for _, name := range strings.Split(accounts, ",") {
		want[strings.TrimSpace(name)] = true
	}
	built := 0
	for _, acct := range core.PaperTestbed() {
		if !want[acct.ScreenName] {
			continue
		}
		n := acct.Followers
		if n > scale {
			n = scale
		}
		layout := population.DeriveLayout(n, acct.FC.Mix(), acct.SB.Mix(), acct.SP.Mix())
		fmt.Fprintf(os.Stderr, "building @%s (%d followers)...\n", acct.ScreenName, n)
		if _, err := gen.BuildTarget(population.TargetSpec{
			ScreenName:       acct.ScreenName,
			Followers:        n,
			NominalFollowers: acct.Followers,
			Layout:           layout,
			Statuses:         1000,
			CreatedAt:        clock.Now().AddDate(-3, 0, 0),
			LastTweet:        clock.Now().Add(-24 * time.Hour),
			FollowSpan:       2 * 365 * 24 * time.Hour,
		}); err != nil {
			return fmt.Errorf("building %s: %w", acct.ScreenName, err)
		}
		built++
	}
	if built == 0 {
		return fmt.Errorf("no known accounts in %q (see the paper testbed)", accounts)
	}
	fmt.Fprintf(os.Stderr, "built %d accounts\n", built)
	return nil
}
