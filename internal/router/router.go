// Package router is the routing tier of the partitioned multi-node
// deployment: a thin HTTP front that maps each request of the simulated
// Twitter API onto the ring of twitterd backends that actually hold the
// account's state. Ownership endpoints (followers/ids, friends/ids,
// statuses/user_timeline) route by the account ID's ring slot — a
// non-holder would silently serve a synthetic view, so these are never
// load-balanced; users/lookup scatter-gathers across the slot owners and
// merges the responses back into input order; users/show spreads by screen
// name (any node resolves profiles identically — see the range-snapshot
// count folding in internal/twitter).
//
// The tier's whole job is to be invisible: the wire observer of the store
// oracle (wire_test.go) asserts that every byte a client observes through
// the router — pages, cursors, profiles, errors — is identical to a
// single-node deployment's, at every check of generated op streams. On top of that it buys graceful degradation: per-backend
// consecutive-failure ejection with probe-based readmission, transparent
// failover of a failed attempt to the range's replica holder, and hedged
// reads that race a slow primary against the replica after a p99-derived
// delay.
//
// The package stays a stdlib + metrics + simclock leaf (enforced by the
// fpvet layering rule): it speaks to backends over plain HTTP and knows
// nothing about stores, so it fronts any conforming deployment.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
)

// The API routes the router understands. Everything else forwards to a
// deterministic healthy backend (all backends answer uniformly for paths
// outside the ownership surface, including 404s).
const (
	pathFollowerIDs  = "/1.1/followers/ids.json"
	pathFriendIDs    = "/1.1/friends/ids.json"
	pathUsersLookup  = "/1.1/users/lookup.json"
	pathUsersShow    = "/1.1/users/show.json"
	pathUserTimeline = "/1.1/statuses/user_timeline.json"
)

// Config shapes a Router. The ring's geometry (DefaultSlots) and its
// health and hedging dials (failThreshold, hedgeMin, hedgeMax) are
// constants, so a router and its backends cannot disagree on them.
type Config struct {
	// Backends are the twitterd base URLs in ring order ("http://host:port",
	// no trailing slash required). Backend i owns ring range i.
	Backends []string
	// Clock drives hedge timers, probe pacing and latency measurement
	// (default the real clock).
	Clock simclock.Clock
	// Registry, when non-nil, receives the router metric families.
	Registry *metrics.Registry
	// ProbeInterval paces the readmission probe loop (default 1s; negative
	// disables the loop — tests drive probes directly).
	ProbeInterval time.Duration
}

// backend is one ring member and its health state.
type backend struct {
	index int
	base  string // normalised base URL, no trailing slash

	healthy  atomic.Bool
	fails    atomic.Int32
	healthyG *metrics.IntGauge
}

// Router fronts a ring of twitterd backends. Safe for concurrent use;
// Close stops the probe loop and waits for hedge bookkeeping goroutines.
type Router struct {
	cfg      Config
	ring     Ring
	backends []*backend
	client   *http.Client
	clock    simclock.Clock
	handler  http.Handler
	// noHedge keeps hedged reads out of tests that count upstream attempts
	// or need them deterministic; production routers always hedge.
	noHedge bool

	// names caches screen-name resolutions. Names are immutable and
	// accounts are never deleted, so positive entries never go stale; the
	// cache is dropped wholesale at nameCacheCap to bound memory.
	namesMu sync.RWMutex
	names   map[string]int64

	inflight sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once

	m routerMetrics
}

// routerMetrics bundles the router's metric families; all fields are nil
// when no registry was configured (recorded through nil-safe helpers).
type routerMetrics struct {
	hedges       *metrics.Counter
	hedgeWins    *metrics.Counter
	failovers    *metrics.Counter
	scatter      *metrics.Counter
	ejections    []*metrics.Counter
	readmissions []*metrics.Counter
	upstream     *metrics.Histogram
}

const nameCacheCap = 1 << 16

// New builds a Router over the configured backends and starts its
// readmission probe loop. Callers must Close it.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	if len(cfg.Backends) > DefaultSlots {
		return nil, fmt.Errorf("router: %d backends exceed the %d ring slots", len(cfg.Backends), DefaultSlots)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	transport := &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(DefaultSlots, len(cfg.Backends)),
		client: &http.Client{Transport: transport},
		clock:  cfg.Clock,
		names:  make(map[string]int64),
		stop:   make(chan struct{}),
	}
	// The upstream latency histogram exists regardless of observability:
	// the adaptive hedge delay reads its p99.
	rt.m.upstream = new(metrics.Histogram)
	for i, base := range cfg.Backends {
		for len(base) > 0 && base[len(base)-1] == '/' {
			base = base[:len(base)-1]
		}
		b := &backend{index: i, base: base}
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.observe(cfg.Registry)
	rt.handler = rt.buildHandler(cfg.Registry)
	if cfg.ProbeInterval > 0 {
		rt.inflight.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// observe registers the router metric families into reg (nil = unobserved).
func (rt *Router) observe(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	rt.m.hedges = reg.Counter("router_hedges_total",
		"Hedged duplicate reads issued to a range's replica holder.")
	rt.m.hedgeWins = reg.Counter("router_hedge_wins_total",
		"Hedged reads where the replica answered before the primary.")
	rt.m.failovers = reg.Counter("router_failovers_total",
		"Attempts retried on another holder after a hard backend failure.")
	rt.m.scatter = reg.Counter("router_scatter_requests_total",
		"users/lookup batches split across more than one backend.")
	reg.RegisterHistogram("router_upstream_seconds",
		"Latency of individual upstream backend attempts.", rt.m.upstream)
	for _, b := range rt.backends {
		label := metrics.L("backend", strconv.Itoa(b.index))
		rt.m.ejections = append(rt.m.ejections, reg.Counter("router_ejections_total",
			"Backends ejected after consecutive failures.", label))
		rt.m.readmissions = append(rt.m.readmissions, reg.Counter("router_readmissions_total",
			"Ejected backends readmitted by a successful health probe.", label))
		b.healthyG = reg.IntGauge("router_backend_healthy",
			"Whether the backend is currently routable (1) or ejected (0).", label)
		b.healthyG.Set(1)
	}
}

// buildHandler assembles the routing mux, wrapped in the shared HTTP
// instrumentation when a registry is configured.
func (rt *Router) buildHandler(reg *metrics.Registry) http.Handler {
	type rtRoute struct {
		path     string
		endpoint string
		h        http.HandlerFunc
	}
	routes := []rtRoute{
		{pathFollowerIDs, "followers/ids", rt.serveOwned},
		{pathFriendIDs, "friends/ids", rt.serveOwned},
		{pathUserTimeline, "statuses/user_timeline", rt.serveOwned},
		{pathUsersShow, "users/show", rt.serveShow},
		{pathUsersLookup, "users/lookup", rt.serveLookup},
	}
	mux := http.NewServeMux()
	var plane *metrics.HTTPPlane
	if reg != nil {
		plane = metrics.NewHTTPPlane(reg, "router", rt.clock)
	}
	for _, r := range routes {
		mux.Handle(r.path, plane.Wrap(r.endpoint, r.h))
	}
	// Everything else — unknown paths included — forwards to a
	// deterministic healthy backend so the router stays invisible.
	mux.Handle("/", plane.Wrap("other", http.HandlerFunc(rt.serveAny)))
	return mux
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// Close stops the probe loop and waits for in-flight hedge and probe
// bookkeeping goroutines (an abandoned real-clock sleep finishes first, so
// Close can take up to one probe interval or hedge delay).
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.inflight.Wait()
	rt.client.CloseIdleConnections()
}

// Healthy counts currently routable backends.
func (rt *Router) Healthy() int {
	n := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// noSlot is route's slot for a request that names no account.
const noSlot = -1

// route is the ring's one routing policy: it returns the attempt pair of a
// request — the backend to try first and the one to hedge or fail over to
// (nil when there is no other). The candidates, in order, are the slot's
// owner and its replica, then, when anyNode (a request every node answers
// identically), the remaining backends in index order; noSlot leaves index
// order alone. Healthy candidates come first: an ejected backend is tried
// only after every healthy one, a last resort that beats a synthesised
// error (it may have just recovered).
func (rt *Router) route(slot int, anyNode bool) (first, second *backend) {
	var buf [DefaultSlots + 2]*backend
	cands := buf[:0]
	if slot != noSlot {
		cands = append(cands, rt.backends[rt.ring.Owner(slot)], rt.backends[rt.ring.Secondary(slot)])
	}
	if anyNode {
		cands = append(cands, rt.backends...)
	}
	for _, healthy := range [2]bool{true, false} {
		for _, b := range cands {
			if b == first || b.healthy.Load() != healthy {
				continue
			}
			if first != nil {
				return first, b
			}
			first = b
		}
	}
	return first, nil
}

// serveAny forwards the request unmodified to a deterministic healthy
// backend — the path for requests whose response is identical on every
// node (malformed parameters, unknown paths).
func (rt *Router) serveAny(w http.ResponseWriter, r *http.Request) {
	first, second := rt.route(noSlot, true)
	resp, err := rt.do(r.Context(), r, first, second, false)
	rt.reply(w, resp, err)
}

// serveOwned routes an ownership endpoint (followers/ids, friends/ids,
// statuses/user_timeline) to the holders of the account's slot. These
// endpoints are never load-balanced: a non-holder would serve a silently
// wrong synthetic view, so a request only ever reaches the range's primary
// or its replica.
func (rt *Router) serveOwned(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if raw := q.Get("user_id"); raw != "" {
		if id, err := strconv.ParseInt(raw, 10, 64); err == nil {
			rt.forwardOwned(w, r, rt.ring.Slot(id))
			return
		}
		// Unparseable user_id: every node produces the identical error.
		rt.serveAny(w, r)
		return
	}
	if name := q.Get("screen_name"); name != "" {
		id, res := rt.resolveName(r.Context(), r, name)
		switch res {
		case resolveOK:
			rt.forwardOwned(w, r, rt.ring.Slot(id))
		case resolveUnknown:
			// The backend emits this endpoint's canonical unknown-name
			// error; names are global, so any node agrees.
			rt.serveAny(w, r)
		default:
			rt.overCapacity(w)
		}
		return
	}
	// Neither parameter: canonical error from any node.
	rt.serveAny(w, r)
}

// forwardOwned sends the request to a slot's holders with failover and
// hedging between them.
func (rt *Router) forwardOwned(w http.ResponseWriter, r *http.Request, slot int) {
	first, second := rt.route(slot, false)
	resp, err := rt.do(r.Context(), r, first, second, true)
	rt.reply(w, resp, err)
}

// serveShow spreads users/show by screen name. Profiles are a pure
// function of record and name on every node (see the range-snapshot count
// folding), so any backend is correct; hashing the name keeps the spread
// deterministic and cache-friendly.
func (rt *Router) serveShow(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("screen_name")
	if name == "" {
		rt.serveAny(w, r)
		return
	}
	first, second := rt.route(rt.nameSlot(name), true)
	resp, err := rt.do(r.Context(), r, first, second, true)
	rt.reply(w, resp, err)
}

// nameSlot maps a screen name onto the ring (FNV-1a; any deterministic
// spread works — correctness never depends on where a name lands).
func (rt *Router) nameSlot(name string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum64() % uint64(rt.ring.Slots()))
}

// resolution outcomes of resolveName.
type resolveResult int

const (
	resolveOK      resolveResult = iota // id is valid
	resolveUnknown                      // the name does not exist
	resolveFailed                       // no backend could answer
)

// resolveName turns a screen name into an account ID so an ownership
// endpoint can route by slot. Positive results are cached forever (names
// are immutable and accounts are never deleted). The lookup reuses the
// client's bearer token: on a rate-limited deployment the resolution
// debits the same tenant that asked for it.
func (rt *Router) resolveName(ctx context.Context, orig *http.Request, name string) (int64, resolveResult) {
	rt.namesMu.RLock()
	id, ok := rt.names[name]
	rt.namesMu.RUnlock()
	if ok {
		return id, resolveOK
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		pathUsersShow+"?screen_name="+queryEscape(name), nil)
	if err != nil {
		return 0, resolveFailed
	}
	if auth := orig.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	}
	first, second := rt.route(rt.nameSlot(name), true)
	resp, err := rt.do(ctx, req, first, second, true)
	if err != nil || resp == nil {
		return 0, resolveFailed
	}
	switch {
	case resp.status == http.StatusOK:
		var u struct {
			ID int64 `json:"id"`
		}
		if json.Unmarshal(resp.body, &u) != nil || u.ID < 1 {
			return 0, resolveFailed
		}
		rt.namesMu.Lock()
		if len(rt.names) >= nameCacheCap {
			rt.names = make(map[string]int64)
		}
		rt.names[name] = u.ID
		rt.namesMu.Unlock()
		return u.ID, resolveOK
	case resp.status == http.StatusNotFound:
		return 0, resolveUnknown
	default:
		return 0, resolveFailed
	}
}

// reply writes an upstream response (or the router's own failure) back to
// the client, preserving the status and the headers clients key off.
func (rt *Router) reply(w http.ResponseWriter, resp *upstreamResponse, err error) {
	if err != nil || resp == nil {
		rt.overCapacity(w)
		return
	}
	copyHeader(w.Header(), resp.header)
	writeBody(w, resp.status, resp.body)
}

// writeBody sends a body the router holds whole with its Content-Length, as
// the node that produced it did: left to net/http, anything past its 2 KB
// sniff buffer goes out chunked, which no single node ever sends.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// forwardedHeaders are the response headers the router relays: the content
// type plus the rate-limit vocabulary clients schedule around.
var forwardedHeaders = []string{
	"Content-Type",
	"Retry-After",
	"X-Rate-Limit-Remaining",
	"X-Rate-Limit-Reset",
}

func copyHeader(dst, src http.Header) {
	for _, k := range forwardedHeaders {
		if vs := src[k]; len(vs) > 0 {
			dst[k] = vs
		}
	}
}

// overCapacity is the router's own failure answer, shaped like the API's
// error body (code 130 is the platform's "over capacity").
func (rt *Router) overCapacity(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_, _ = w.Write([]byte(`{"errors":[{"code":130,"message":"Over capacity"}]}` + "\n"))
}

// queryEscape escapes a screen name for a query string. Screen names are
// alphanumeric-plus-underscore in the simulated platform, but the router
// must not corrupt arbitrary client input, so escape fully.
func queryEscape(s string) string {
	const hexdigits = "0123456789ABCDEF"
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.', c == '~':
			out = append(out, c)
		default:
			out = append(out, '%', hexdigits[c>>4], hexdigits[c&0xF])
		}
	}
	return string(out)
}
