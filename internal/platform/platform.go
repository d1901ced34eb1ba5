// Package platform is the one assembly of a serving process: store source
// (fresh | snapshot | snapshot range | WAL ± seed) → twitterapi.Service →
// limits → observed-or-plain server → root mux (/healthz, /admin/snapshot,
// /metrics, /metrics.json, /dashboard/, /debug/pprof/) → listener, described
// by one Spec value, and the one lifecycle every daemon runs: SIGINT/SIGTERM
// → stop accepting → bounded drain → closers, newest first, so a WAL-backed
// process seals its segment after the last request that could append to it.
//
// cmd/twitterd, cmd/auditd, cmd/routerd and cmd/loadd (its observability
// sidecar) all build their processes here; each contributes only what is
// its own (the population it builds, the handler it mounts at "/", the
// closers of the subsystems it started). Tests assemble deployments from
// the same Spec. Everything in this package runs at assembly or shutdown
// time: the request path is root mux → the mounted handler, and nothing of
// platform is on it.
//
// A ring member's ranges, and the ranges /admin/snapshot exports, are cut
// over router.DefaultSlots, the same constant routerd routes by: no Spec
// field or flag can make a member and its router disagree on them.
package platform

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/opsui"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
	"fakeproject/internal/wal"
)

// DrainTimeout bounds the stop path: how long Run waits for in-flight
// requests and the closers before giving up on a clean exit.
const DrainTimeout = 30 * time.Second

// Spec describes one serving process. Every field is the value of a daemon
// flag, named in its comment.
type Spec struct {
	// Addr is the listen address (-addr; loadd's -obs-addr).
	Addr string

	// Seed seeds a fresh store (-seed). A loaded or recovered population
	// keeps the seed it was built with.
	Seed uint64
	// Load is a genpop snapshot file (-load): the whole store source on its
	// own, the seed of a fresh WAL directory with WALDir, the canonical
	// snapshot a ring member range-loads with RingNodes.
	Load string
	// WALDir runs the store on a write-ahead log in this directory
	// (-wal-dir), recovered on boot; Fsync is its policy (-fsync: always,
	// interval, off) and CompactEvery its automatic compaction threshold in
	// records (-compact-every, 0 = never).
	WALDir       string
	Fsync        string
	CompactEvery uint64
	// RingNodes > 0 boots the process as member RingIndex of a partitioned
	// ring of that many nodes over router.DefaultSlots slots (-ring-nodes,
	// -ring-index): it materialises heavy target state only for the slot
	// ranges it owns or replicates.
	RingIndex, RingNodes int

	// NoLimits disables the Table I rate limits on the API plane
	// (-no-limits).
	NoLimits bool
	// Metrics observes the process into a fresh registry and mounts
	// /metrics and /metrics.json on the root mux (-metrics), Dashboard the
	// embedded ops dashboard at /dashboard/ (-dashboard, needs Metrics),
	// Pprof net/http/pprof at /debug/pprof/ (-pprof).
	Metrics, Dashboard, Pprof bool
}

// ObsFlags declares the observability flags every binary shares on fs.
func (s *Spec) ObsFlags(fs *flag.FlagSet) {
	fs.BoolVar(&s.Metrics, "metrics", true, "serve /metrics (Prometheus text) and /metrics.json")
	fs.BoolVar(&s.Dashboard, "dashboard", true, "serve the embedded ops dashboard at /dashboard/ (needs -metrics)")
	fs.BoolVar(&s.Pprof, "pprof", false, "mount net/http/pprof at /debug/pprof/")
}

// Validate reports a Spec whose parts cannot be combined.
func (s Spec) Validate() error {
	if s.RingNodes <= 0 && s.RingIndex <= 0 {
		return nil
	}
	if s.RingIndex < 0 || s.RingIndex >= s.RingNodes {
		return fmt.Errorf("-ring-index %d needs -ring-nodes > it (got %d)", s.RingIndex, s.RingNodes)
	}
	if s.RingNodes > router.DefaultSlots {
		return fmt.Errorf("-ring-nodes %d exceeds the %d ring slots", s.RingNodes, router.DefaultSlots)
	}
	if s.Load == "" {
		return fmt.Errorf("-ring-index requires -load (ring members boot from a canonical snapshot)")
	}
	if s.WALDir != "" {
		return fmt.Errorf("-ring-index is incompatible with -wal-dir (ring members are read-serving replicas)")
	}
	return nil
}

// Process is one assembled serving process. Callers mount their plane on
// Mux (or call ServeAPI), register the closers of what they started with
// OnStop, and hand control to Run — or, in-process, to Start and Stop.
type Process struct {
	Spec Spec
	// Reg is the registry the process is observed into; nil when it is not.
	Reg *metrics.Registry
	// Mux is the root mux the listener serves.
	Mux *http.ServeMux
	// Server is the HTTP server Start binds; its timeouts may be adjusted
	// before Start, and Server.Close is the hard kill.
	Server *http.Server
	// WAL is the log behind the store OpenStore returned, nil without WALDir.
	WAL *wal.Log

	closers  []func(context.Context) error
	serveErr chan error
}

// New validates spec and assembles the parts every process has: the
// registry and the root mux with the observability surfaces spec asks for.
func New(spec Spec) (*Process, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Process{Spec: spec, Mux: http.NewServeMux(), serveErr: make(chan error, 1)}
	if spec.Metrics {
		p.Reg = metrics.NewRegistry()
		p.Mux.Handle("GET /metrics", p.Reg)
		p.Mux.Handle("GET /metrics.json", p.Reg)
		if spec.Dashboard {
			p.Mux.Handle("/dashboard/", opsui.Handler("/dashboard/"))
		}
	}
	if spec.Pprof {
		metrics.MountPprof(p.Mux)
	}
	p.Server = &http.Server{
		Handler:      p.Mux,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	return p, nil
}

// OpenStore is the store-source switch. In order of precedence: a ring
// member range-loads Spec.Load; WALDir recovers the directory (seeding a
// fresh one from Spec.Load, if set) and registers the log's Close as a
// closer; Load alone loads the snapshot; otherwise the store starts empty
// on Spec.Seed. A store that comes back with no accounts is the caller's to
// populate.
func (p *Process) OpenStore(clock simclock.Clock) (*twitter.Store, error) {
	s := p.Spec
	switch {
	case s.RingNodes > 0:
		ring := router.NewRing(router.DefaultSlots, s.RingNodes)
		store, err := twitter.LoadSnapshotRangeFile(s.Load, clock, func(id twitter.UserID) bool {
			return ring.Keep(s.RingIndex, int64(id))
		})
		if err != nil {
			return nil, err
		}
		olo, ohi := ring.OwnedRange(s.RingIndex)
		rlo, rhi := ring.ReplicatedRange(s.RingIndex)
		fmt.Fprintf(os.Stderr, "ring node %d/%d: %d accounts, owns slots [%d,%d), replicates [%d,%d) of %d\n",
			s.RingIndex, s.RingNodes, store.UserCount(), olo, ohi, rlo, rhi, ring.Slots())
		return store, nil

	case s.WALDir != "":
		policy, err := wal.ParsePolicy(s.Fsync)
		if err != nil {
			return nil, err
		}
		store, wlog, stats, err := wal.Open(wal.Config{
			Dir:          s.WALDir,
			Policy:       policy,
			CompactEvery: s.CompactEvery,
			SeedSnapshot: s.Load,
			Clock:        clock,
			Seed:         s.Seed,
			Metrics:      p.Reg,
		})
		if err != nil {
			return nil, err
		}
		p.WAL = wlog
		p.OnStop(func(context.Context) error { return wlog.Close() })
		torn := ""
		if stats.TornTail {
			torn = "; torn tail truncated"
		}
		fmt.Fprintf(os.Stderr, "wal: %s recovered %d accounts (snapshot %q + %d records across %d segments%s) in %v\n",
			s.WALDir, stats.Users, stats.SnapshotPath, stats.RecordsReplayed, stats.SegmentsScanned, torn, stats.Elapsed.Round(time.Millisecond))
		return store, nil

	case s.Load != "":
		store, err := twitter.LoadSnapshotFile(s.Load, clock)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot with %d accounts\n", store.UserCount())
		return store, nil
	}
	return twitter.NewStore(clock, s.Seed), nil
}

// ServeAPI mounts the API plane over store on the root mux: the
// twitterapi server at "/" (Table I limits unless Spec.NoLimits, observed
// when the process is; it answers the router's /admin/resolve itself),
// /healthz for the router's probes and /admin/snapshot for range export.
// It returns the service behind the server so in-process clients can
// share it.
func (p *Process) ServeAPI(store *twitter.Store, clock simclock.Clock) *twitterapi.Service {
	svc := twitterapi.NewService(store)
	limits := twitterapi.DefaultLimits()
	if p.Spec.NoLimits {
		limits = nil
	}
	p.Mux.Handle("/", twitterapi.NewServerObserved(svc, clock, limits, p.Reg))
	if p.Reg != nil {
		twitterapi.ObserveStore(p.Reg, store)
	}
	p.Healthz()
	p.Mux.HandleFunc("GET /admin/snapshot", func(w http.ResponseWriter, r *http.Request) {
		p.handleSnapshotExport(w, r, store)
	})
	return svc
}

// Healthz mounts the always-"ok" liveness probe. ServeAPI includes it; a
// process whose plane has no health notion of its own (routerd) calls it
// directly, and one that has (auditd's queue-aware /healthz) does not.
func (p *Process) Healthz() {
	p.Mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
}

// handleSnapshotExport streams a canonical range snapshot: by default the
// ranges this node holds (everything, for a non-ring process), or — with
// ?node=i&nodes=N — the held set of an arbitrary ring position, which is
// how a joining node pulls its ranges from a current holder. A position
// that cannot exist (N above the ring's slot count) is refused rather than
// wrapped onto another node's ranges, and one that keeps a slot this node
// does not hold is refused rather than exported without that slot's
// followers. Exports are canonical: any two holders of a range stream
// identical bytes for it at one clock position (the header stamps it), so
// ownership transfer is verifiable with a plain byte compare.
func (p *Process) handleSnapshotExport(w http.ResponseWriter, r *http.Request, store *twitter.Store) {
	node, nodes := p.Spec.RingIndex, p.Spec.RingNodes
	if q := r.URL.Query(); q.Has("node") || q.Has("nodes") {
		var err1, err2 error
		node, err1 = strconv.Atoi(q.Get("node"))
		nodes, err2 = strconv.Atoi(q.Get("nodes"))
		if err1 != nil || err2 != nil || node < 0 || node >= nodes || nodes > router.DefaultSlots {
			http.Error(w, fmt.Sprintf("need node=i&nodes=N with 0 <= i < N <= %d", router.DefaultSlots), http.StatusBadRequest)
			return
		}
	}
	var keep func(twitter.UserID) bool // nil: full snapshot
	if nodes > 0 {
		ring := router.NewRing(router.DefaultSlots, nodes)
		keep = func(id twitter.UserID) bool { return ring.Keep(node, int64(id)) }
	}
	if own := p.Spec; own.RingNodes > 0 {
		held := router.NewRing(router.DefaultSlots, own.RingNodes)
		for slot := 0; slot < router.DefaultSlots; slot++ {
			// Slot s holds the IDs congruent to s+1 modulo the slot count.
			if id := int64(slot + 1); keep(twitter.UserID(id)) && !held.Keep(own.RingIndex, id) {
				olo, ohi := held.OwnedRange(own.RingIndex)
				rlo, rhi := held.ReplicatedRange(own.RingIndex)
				http.Error(w, fmt.Sprintf("node %d/%d holds slots [%d,%d) and [%d,%d); position %d/%d also keeps slot %d",
					own.RingIndex, own.RingNodes, olo, ohi, rlo, rhi, node, nodes, slot), http.StatusConflict)
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := store.WriteSnapshotRange(w, keep); err != nil {
		// Headers are gone; all we can do is cut the stream short so the
		// client's snapshot reader reports truncation.
		fmt.Fprintf(os.Stderr, "snapshot export: %v\n", err)
	}
}

// OnStop registers a closer for the stop path. Closers run newest first,
// after the listener has drained: whatever was started later may depend on
// what was opened earlier (the audit pool on the store, the store on its
// log), so it stops first.
func (p *Process) OnStop(closer func(context.Context) error) {
	p.closers = append(p.closers, closer)
}

// Start binds Spec.Addr and serves the root mux in the background. It
// returns the bound address (the real port of a ":0" listen).
func (p *Process) Start() (string, error) {
	ln, err := net.Listen("tcp", p.Spec.Addr)
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if p.Spec.Metrics {
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics", addr)
		if p.Spec.Dashboard {
			fmt.Fprintf(os.Stderr, ", dashboard on http://%s/dashboard/", addr)
		}
		fmt.Fprintln(os.Stderr)
	}
	go func() { p.serveErr <- p.Server.Serve(ln) }()
	return addr, nil
}

// Stop is the stop path: stop accepting, let in-flight requests finish
// until ctx expires, then run the closers newest first. It returns the
// first error met, having still run every step.
func (p *Process) Stop(ctx context.Context) error {
	err := p.Server.Shutdown(ctx)
	for i := len(p.closers) - 1; i >= 0; i-- {
		if cerr := p.closers[i](ctx); err == nil {
			err = cerr
		}
	}
	p.closers = nil
	return err
}

// Run is the daemon lifecycle: Start, serve until SIGINT/SIGTERM (or a
// listener failure), then Stop bounded by DrainTimeout. name prefixes the
// drain notice on stderr. A signalled, fully drained process returns nil.
func (p *Process) Run(name string) error {
	if _, err := p.Start(); err != nil {
		_ = p.drain()
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	select {
	case err := <-p.serveErr:
		_ = p.drain()
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "%s: %v, draining...\n", name, sig)
	}
	return p.drain()
}

func (p *Process) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	return p.Stop(ctx)
}
