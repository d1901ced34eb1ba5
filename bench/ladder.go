//fp:allow-file walltime the ladder times each layer's entry points from outside

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fakeproject/internal/auditd"
	"fakeproject/internal/metrics"
	"fakeproject/internal/ratelimit"
	"fakeproject/internal/router"
	"fakeproject/internal/simclock"
	"fakeproject/internal/stats"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
	"fakeproject/internal/wal"
)

// The layer ladder is the traced run. It is in process and single
// threaded: each operation of a workload's stream is executed once per
// rung — the store call, the service call over it, the HTTP handler over
// that, the same handler behind a loopback socket, the router over two
// loopback ring members — and every call is a span whose parent is the
// rung above. A layer's self time is its rung's median minus the median of
// the rung below. Nothing inside the program is instrumented; the spans
// are taken around the public entry points of each package.

// span is one timed call. Spans of one operation share Op; Parent is the
// span of the rung above (0 for the top rung).
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the ladder ends. The audit rungs
// record API-call spans from the service's worker goroutine, hence the lock.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	nextID  int
	enabled bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), enabled: true} }

// reserve hands out a span id before the span's end is known, so that
// children can name their parent.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(op, id, parent int, name string, start, end time.Time) {
	if !t.enabled {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// timed runs fn as a span and returns its id and duration.
func (t *tracer) timed(op, parent int, name string, fn func()) (int, time.Duration) {
	id := t.reserve()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(op, id, parent, name, start, end)
	return id, end.Sub(start)
}

// take removes and returns the spans recorded so far.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func writeSpans(workload string, spans []span) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects durations by name; med is their median in the unit the
// caller divides by.
type samples map[string][]float64

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], float64(d)) }

func (s samples) med(name string, unit time.Duration) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return stats.Median(s[name]) / float64(unit)
}

// mallocsPer reports heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// meanNS is the mean time per call of fn, as the median of five rounds of
// n calls; for entry points too short to time one call at a time.
func meanNS(n int, fn func()) float64 {
	rounds := make([]float64, 5)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return stats.Median(rounds)
}

// sink is an http.ResponseWriter that counts what a handler writes.
type sink struct {
	header http.Header
	status int
	bytes  int
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(b []byte) (int, error) {
	s.bytes += len(b)
	return len(b), nil
}

func (s *sink) reset() {
	clear(s.header)
	s.status, s.bytes = http.StatusOK, 0
}

// loopback serves h on a free loopback port until closed.
type loopback struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, base: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		_ = lb.srv.Serve(l) // returns ErrServerClosed on close
	}()
	return lb, nil
}

func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// runLadder executes every rung and returns the ladder's per-layer metrics.
// It writes one span file per workload under bench/out.
func runLadder(env *runEnv, store *twitter.Store) (map[string]float64, error) {
	out := map[string]float64{
		"population.build_accounts_per_s":    float64(env.fx.Accounts) / env.fx.BuildSeconds,
		"persist.write_snapshot_s":           env.fx.WriteSeconds,
		"persist.snapshot_bytes_per_account": float64(env.fx.SnapshotBytes) / float64(env.fx.Accounts),
	}
	tr := newTracer()
	steps := []func(*runEnv, *twitter.Store, *tracer, map[string]float64) error{
		microLadder, crawlLadder, auditLadder,
		churnLadder, // last: it mutates the fixture store
	}
	for _, step := range steps {
		if err := step(env, store, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// microLadder times the entry points that are too short for spans:
// rate-limiter decisions and the ring's owner lookup.
func microLadder(env *runEnv, store *twitter.Store, _ *tracer, out map[string]float64) error {
	const n = 200000
	roomy := ratelimit.Limit{Requests: 1 << 40, Window: 15 * time.Minute}
	lim := ratelimit.New(simclock.Real{}, map[string]ratelimit.Limit{"limited": roomy})
	out["ratelimit.allow_ns"] = meanNS(n, func() { lim.Allow("limited") })
	out["ratelimit.allow_unlimited_ns"] = meanNS(n, func() { lim.Allow("free") })
	// Reserve is what the audit engines' clients call, on a virtual clock.
	virt := ratelimit.New(simclock.NewVirtualAtEpoch(), map[string]ratelimit.Limit{"limited": roomy})
	out["ratelimit.reserve_ns"] = meanNS(n, func() { virt.Reserve("limited") })

	ring := router.NewRing(router.DefaultSlots, 2)
	id, sum := int64(0), 0
	out["router.ring_owner_ns"] = meanNS(n, func() {
		id++
		sum += ring.Owner(ring.Slot(id))
	})
	if sum < 0 {
		return errors.New("unreachable") // keeps the loop's result live
	}
	if edges, size := store.EdgeMemoryStats(env.fx.Crawl[0].ID); edges > 0 {
		out["twitter.edge_bytes_per_edge"] = float64(size) / float64(edges)
	}
	return nil
}

// loadRange loads the fixture snapshot as ring member node of nodes (the
// whole snapshot when nodes is 0) and returns the store and the load time.
func loadRange(env *runEnv, node, nodes int) (*twitter.Store, float64, error) {
	f, err := os.Open(env.fx.Snapshot)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	start := time.Now()
	var st *twitter.Store
	if nodes == 0 {
		st, err = twitter.ReadSnapshot(f, simclock.NewVirtualAtEpoch())
	} else {
		ring := router.NewRing(router.DefaultSlots, nodes)
		st, err = twitter.ReadSnapshotRange(f, simclock.NewVirtualAtEpoch(),
			func(id twitter.UserID) bool { return ring.Keep(node, int64(id)) })
	}
	if err != nil {
		return nil, 0, fmt.Errorf("loading the fixture snapshot: %w", err)
	}
	return st, time.Since(start).Seconds(), nil
}

// Rungs of the crawl ladder, top first.
const (
	rungRouter   = "router.serve"
	rungLoopback = "twitterapi.loopback"
	rungObserved = "twitterapi.http_observed"
	rungHTTP     = "twitterapi.http"
	rungService  = "twitterapi.service"
	rungStore    = "twitter.store"
)

// crawlLadder runs the head of the crawl stream down the rungs.
func crawlLadder(env *runEnv, store *twitter.Store, tr *tracer, out map[string]float64) error {
	_, readAll, err := loadRange(env, 0, 0)
	if err != nil {
		return err
	}
	out["persist.read_snapshot_s"] = readAll

	svc := twitterapi.NewService(store)
	plain := twitterapi.NewServerLimits(svc, simclock.Real{}, nil)
	observed := twitterapi.NewServerObserved(svc, simclock.Real{}, nil, metrics.NewRegistry())
	single, err := serveLoopback(observed)
	if err != nil {
		return err
	}
	defer single.close()

	var backends []string
	for node := 0; node < 2; node++ {
		st, secs, err := loadRange(env, node, 2)
		if err != nil {
			return err
		}
		if node == 0 {
			out["persist.read_range_s"] = secs
		}
		member, err := serveLoopback(twitterapi.NewServerObserved(
			twitterapi.NewService(st), simclock.Real{}, nil, metrics.NewRegistry()))
		if err != nil {
			return err
		}
		defer member.close()
		backends = append(backends, member.base)
	}
	rt, err := router.New(router.Config{Backends: backends, Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	defer rt.Close()

	client := newClient()
	defer client.CloseIdleConnections()
	var body bytes.Buffer
	fetch := func(url string) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body.Reset()
		if _, err := body.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", url, resp.StatusCode)
		}
		return nil
	}

	var (
		stream   = newCrawlStream(env.fx)
		lat      = samples{}
		w        = &sink{header: http.Header{}}
		cursor   = twitterapi.CursorFirst // the walk's cursor on the API rungs
		seq      = twitter.SeqNewest      // and its anchor on the store rung
		respSize = 0
		failure  error
	)
	fail := func(rung string, op crawlOp, err error) {
		if failure == nil && err != nil {
			failure = fmt.Errorf("%s %s: %w", rung, opKindNames[op.Kind], err)
		}
	}
	serve := func(h http.Handler, req *http.Request) error {
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("status %d", w.status)
		}
		return nil
	}
	for i := 0; i < verifyOps && failure == nil; i++ {
		op := stream.next()
		path := op.Path
		if op.Kind == opFollowers && op.Page > 0 {
			path += strconv.FormatInt(cursor, 10)
		}
		req, err := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
		if err != nil {
			return err
		}
		kind := "/" + opKindNames[op.Kind]
		rung := func(parent int, name string, fn func() error) int {
			id, d := tr.timed(i, parent, name+kind, func() { fail(name, op, fn()) })
			lat.add(name+kind, d)
			return id
		}
		id := rung(0, rungRouter, func() error { return serve(rt, req) })
		id = rung(id, rungLoopback, func() error { return fetch(single.base + path) })
		respSize += body.Len()
		id = rung(id, rungObserved, func() error { return serve(observed, req) })
		id = rung(id, rungHTTP, func() error { return serve(plain, req) })

		q := req.URL.Query()
		userID, _ := strconv.ParseInt(q.Get("user_id"), 10, 64)
		var nextCursor int64
		var nextSeq uint64
		switch op.Kind {
		case opFollowers:
			t := env.fx.Crawl[op.Target].ID
			id = rung(id, rungService, func() error {
				page, err := svc.FollowerIDs(t, cursor)
				nextCursor = page.NextCursor
				return err
			})
			rung(id, rungStore, func() error {
				page, err := store.FollowersPage(t, seq, followersPageSize)
				nextSeq = page.NextSeq
				return err
			})
			cursor, seq = nextCursor, nextSeq
			if op.LastPage {
				if cursor != twitterapi.CursorDone || seq != 0 {
					fail(rungService, op, errors.New("walk did not end on its last page"))
				}
				cursor, seq = twitterapi.CursorFirst, twitter.SeqNewest
			}
		case opLookup:
			var ids []twitter.UserID
			for _, f := range strings.Split(q.Get("user_id"), ",") {
				v, _ := strconv.ParseInt(f, 10, 64)
				ids = append(ids, twitter.UserID(v))
			}
			id = rung(id, rungService, func() error { _, err := svc.UsersLookup(ids); return err })
			rung(id, rungStore, func() error {
				if got := store.Profiles(ids); len(got) != len(ids) {
					return fmt.Errorf("%d of %d profiles", len(got), len(ids))
				}
				return nil
			})
		case opTimeline:
			id = rung(id, rungService, func() error { _, err := svc.UserTimeline(twitter.UserID(userID), 200, 0); return err })
			rung(id, rungStore, func() error { _, err := store.Timeline(twitter.UserID(userID), 200); return err })
		case opFriends:
			id = rung(id, rungService, func() error {
				_, err := svc.FriendIDs(twitter.UserID(userID), twitterapi.CursorFirst)
				return err
			})
			rung(id, rungStore, func() error { _, err := store.FriendsCount(twitter.UserID(userID)); return err })
		case opShow:
			name := q.Get("screen_name")
			id = rung(id, rungService, func() error { _, err := svc.UsersShow(name); return err })
			rung(id, rungStore, func() error {
				uid, err := store.LookupName(name)
				if err == nil {
					_, err = store.Profile(uid)
				}
				return err
			})
		}
	}
	if failure != nil {
		return fmt.Errorf("crawl ladder: %w", failure)
	}

	us := func(rung string, kind int) float64 { return lat.med(rung+"/"+opKindNames[kind], time.Microsecond) }
	out["twitter.followers_page_us"] = us(rungStore, opFollowers)
	out["twitter.profiles_100_us"] = us(rungStore, opLookup)
	out["twitter.timeline_200_us"] = us(rungStore, opTimeline)
	out["twitterapi.service_follower_ids_us"] = us(rungService, opFollowers) - us(rungStore, opFollowers)
	out["twitterapi.http_follower_ids_us"] = us(rungHTTP, opFollowers)
	out["twitterapi.http_users_lookup_us"] = us(rungHTTP, opLookup)
	out["twitterapi.http_user_timeline_us"] = us(rungHTTP, opTimeline)
	out["twitterapi.http_friends_ids_us"] = us(rungHTTP, opFriends)
	out["twitterapi.http_users_show_us"] = us(rungHTTP, opShow)
	out["twitterapi.loopback_follower_ids_us"] = us(rungLoopback, opFollowers) - us(rungObserved, opFollowers)
	out["twitterapi.response_bytes_per_op"] = float64(respSize) / verifyOps
	out["router.forward_follower_ids_us"] = us(rungRouter, opFollowers) - us(rungLoopback, opFollowers)
	out["router.scatter_lookup_us"] = us(rungRouter, opLookup) - us(rungLoopback, opLookup)

	// The rungs below the router are crawl-single's trace; crawl-ring's is
	// the whole chain.
	all := tr.take()
	var below []span
	routerSpan := map[int]bool{}
	for _, s := range all {
		if strings.HasPrefix(s.Name, rungRouter) {
			routerSpan[s.ID] = true
			continue
		}
		if routerSpan[s.Parent] {
			s.Parent = 0
		}
		below = append(below, s)
	}
	if err := writeSpans("crawl-single", below); err != nil {
		return err
	}
	if err := writeSpans("crawl-ring", all); err != nil {
		return err
	}

	// Allocation counts and the differences too small for one-call spans.
	first := env.fx.Crawl[0]
	firstPage, err := http.NewRequest(http.MethodGet, "http://bench/1.1/followers/ids.json?user_id="+
		strconv.FormatInt(int64(first.ID), 10)+"&cursor=-1", nil)
	if err != nil {
		return err
	}
	out["twitter.followers_page_allocs"] = mallocsPer(200, func() {
		_, _ = store.FollowersPage(first.ID, twitter.SeqNewest, followersPageSize)
	})
	out["twitterapi.http_follower_ids_allocs"] = mallocsPer(200, func() { _ = serve(plain, firstPage) })

	show, err := http.NewRequest(http.MethodGet, "http://bench/1.1/users/show.json?screen_name="+first.Name, nil)
	if err != nil {
		return err
	}
	var onPlain, onObserved []float64
	for round := 0; round < 9; round++ {
		onPlain = append(onPlain, meanNS(2000, func() { _ = serve(plain, show) }))
		onObserved = append(onObserved, meanNS(2000, func() { _ = serve(observed, show) }))
	}
	out["metrics.middleware_overhead_us"] = (stats.Median(onObserved) - stats.Median(onPlain)) / 1000

	// Name resolution: a walk opened by screen name costs the router one
	// users/show round trip the first time it sees the name and a map hit
	// afterwards. A fresh router per name keeps every first request cold.
	var resolve []float64
	for _, t := range append(append([]target{}, env.fx.Crawl...), env.fx.Audit...) {
		cold, err := router.New(router.Config{Backends: backends, ProbeInterval: -1})
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodGet, "http://bench/1.1/statuses/user_timeline.json?screen_name="+t.Name+"&count=1", nil)
		if err != nil {
			cold.Close()
			return err
		}
		var took [2]time.Duration
		for i := range took {
			start := time.Now()
			err = serve(cold, req)
			took[i] = time.Since(start)
			if err != nil {
				break
			}
		}
		cold.Close()
		if err != nil {
			return fmt.Errorf("resolving %s through the router: %w", t.Name, err)
		}
		resolve = append(resolve, float64(took[0]-took[1])/float64(time.Microsecond))
	}
	out["router.resolve_name_us"] = stats.Median(resolve)

	// Tracing overhead: the loopback rung with and without span recording.
	var traced, untraced []float64
	url := single.base + firstPage.URL.RequestURI()
	for i := 0; i < 600; i++ {
		tr.enabled = i%2 == 0
		_, d := tr.timed(i, 0, "trace.overhead", func() { fail("trace.overhead", crawlOp{}, fetch(url)) })
		if tr.enabled {
			traced = append(traced, float64(d))
		} else {
			untraced = append(untraced, float64(d))
		}
	}
	tr.enabled = true
	tr.take()
	if base := stats.Median(untraced); base > 0 {
		out["trace.overhead_pct"] = 100 * (stats.Median(traced) - base) / base
	}
	return failure
}

// timedClient wraps an engine's API client so that crawl time and engine
// compute separate without touching the program: every API call becomes a
// span under the job that issued it.
type timedClient struct {
	twitterapi.Client
	a *auditTimer
}

// auditTimer accumulates the API time of the job in flight. Jobs run one at
// a time on the ladder's single worker.
type auditTimer struct {
	tr     *tracer
	mu     sync.Mutex
	op     int
	parent int
	spent  time.Duration
	calls  int
}

func (a *auditTimer) begin(op, parent int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.op, a.parent, a.spent, a.calls = op, parent, 0, 0
}

func (a *auditTimer) totals() (time.Duration, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent, a.calls
}

func (a *auditTimer) call(name string, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	a.mu.Lock()
	op, parent := a.op, a.parent
	a.spent += end.Sub(start)
	a.calls++
	a.mu.Unlock()
	a.tr.add(op, a.tr.reserve(), parent, "twitterapi.client/"+name, start, end)
}

func (c timedClient) UserByScreenName(name string) (p twitter.Profile, err error) {
	c.a.call(twitterapi.EndpointUsersShow, func() { p, err = c.Client.UserByScreenName(name) })
	return p, err
}

func (c timedClient) FollowerIDs(t twitter.UserID, cursor int64) (p twitterapi.IDPage, err error) {
	c.a.call(twitterapi.EndpointFollowerIDs, func() { p, err = c.Client.FollowerIDs(t, cursor) })
	return p, err
}

func (c timedClient) FriendIDs(id twitter.UserID, cursor int64) (p twitterapi.IDPage, err error) {
	c.a.call(twitterapi.EndpointFriendIDs, func() { p, err = c.Client.FriendIDs(id, cursor) })
	return p, err
}

func (c timedClient) UsersLookup(ids []twitter.UserID) (p []twitter.Profile, err error) {
	c.a.call(twitterapi.EndpointUsersLookup, func() { p, err = c.Client.UsersLookup(ids) })
	return p, err
}

func (c timedClient) UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) (t []twitter.Tweet, err error) {
	c.a.call(twitterapi.EndpointUserTimeline, func() { t, err = c.Client.UserTimeline(id, count, maxID) })
	return t, err
}

// newAuditService assembles auditd the way cmd/auditd -load does, with one
// worker, over clients wrapped by wrap.
func newAuditService(store *twitter.Store, seed uint64, cacheTTL time.Duration, wrap func(twitterapi.Client) twitterapi.Client) (*auditd.Service, error) {
	clock := store.Clock()
	api := twitterapi.NewService(store)
	newClient := func(_ string, worker int) twitterapi.Client {
		return wrap(twitterapi.NewDirectClient(api, clock, twitterapi.ClientConfig{Tokens: 50, Seed: seed + uint64(worker)}))
	}
	return auditd.New(auditd.Config{
		Workers:   1,
		CacheTTL:  cacheTTL,
		Clock:     clock,
		Tools:     auditd.StandardFactories(newClient, auditd.ToolSetConfig{Clock: clock, Seed: seed}),
		ToolOrder: auditd.StandardToolOrder,
	})
}

// auditLadder times cold audits per tool in process, then all four tools in
// process and over loopback, then a cached repeat.
func auditLadder(env *runEnv, store *twitter.Store, tr *tracer, out map[string]float64) error {
	ctx := context.Background()
	timer := &auditTimer{tr: tr}
	svc, err := newAuditService(store, env.fx.Seed, -1, func(c twitterapi.Client) twitterapi.Client {
		return timedClient{Client: c, a: timer}
	})
	if err != nil {
		return err
	}
	defer func() { _ = svc.Shutdown(ctx) }() // nothing is queued by then

	op := 0
	// audit runs one job as a span and returns its time and API share.
	audit := func(parent int, name, target string, tools []string) (id int, took, api time.Duration, calls int, err error) {
		id = tr.reserve()
		timer.begin(op, id)
		start := time.Now()
		snap, err := svc.Submit(auditd.JobSpec{Target: target, Tools: tools})
		if err == nil {
			snap, err = svc.Await(ctx, snap.ID)
		}
		end := time.Now()
		tr.add(op, id, parent, name, start, end)
		if err == nil && snap.State != auditd.StateDone {
			err = fmt.Errorf("audit of %s ended %s: %s", target, snap.State, snap.Err)
		}
		api, calls = timer.totals()
		return id, end.Sub(start), api, calls, err
	}

	// The first job trains the FC classifier; it is not timed.
	if _, _, _, _, err := audit(0, "auditd.warm", env.fx.Audit[0].Name, nil); err != nil {
		return err
	}
	tr.take()

	api, err := serveLoopback(auditd.NewHandler(svc))
	if err != nil {
		return err
	}
	defer api.close()
	client := newClient()
	defer client.CloseIdleConnections()
	// post audits target with every tool over the loopback API.
	post := func(target string) (id int, took time.Duration, err error) {
		spec, err := json.Marshal(auditd.JobSpec{Target: target})
		if err != nil {
			return 0, 0, err
		}
		id = tr.reserve()
		timer.begin(op, id)
		start := time.Now()
		resp, err := client.Post(api.base+"/v1/audits?wait=60s", "application/json", bytes.NewReader(spec))
		if err != nil {
			return 0, 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		end := time.Now()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("audit of %s over loopback: status %d, %v", target, resp.StatusCode, err)
		}
		tr.add(op, id, 0, "auditd.http/all", start, end)
		return id, end.Sub(start), nil
	}

	// Each target is audited over loopback, then in process, then tool by
	// tool, three rounds of the first two. The HTTP overhead is the median
	// of the paired differences, which cancels the drift between rounds.
	lat := samples{}
	var jobTime, apiTime time.Duration
	for round := 0; round < 3; round++ {
		for _, t := range env.fx.Audit {
			op++
			id, overHTTP, err := post(t.Name)
			if err != nil {
				return err
			}
			id, took, api, _, err := audit(id, "auditd.job/all", t.Name, nil)
			if err != nil {
				return err
			}
			lat.add("http-overhead", overHTTP-took)
			lat.add("engine", took-api)
			jobTime, apiTime = jobTime+took, apiTime+api
			if round > 0 {
				continue
			}
			for _, tool := range auditd.StandardToolOrder {
				_, took, _, _, err := audit(id, "auditd.job/"+tool, t.Name, []string{tool})
				if err != nil {
					return err
				}
				lat.add(tool, took)
			}
		}
	}
	for _, tool := range auditd.StandardToolOrder {
		out["auditd.job_ms."+tool] = lat.med(tool, time.Millisecond)
	}
	out["auditd.engine_ms_per_job"] = lat.med("engine", time.Millisecond)
	out["auditd.api_share_pct"] = 100 * float64(apiTime) / float64(jobTime)
	out["auditd.http_overhead_us"] = lat.med("http-overhead", time.Microsecond)
	if err := writeSpans("audit-cold", tr.take()); err != nil {
		return err
	}

	// A cached repeat answers inline from the result cache. The gated
	// workload turns the cache off, so this number should move nothing.
	cached, err := newAuditService(store, env.fx.Seed, 0, func(c twitterapi.Client) twitterapi.Client { return c })
	if err != nil {
		return err
	}
	defer func() { _ = cached.Shutdown(ctx) }()
	spec := auditd.JobSpec{Target: env.fx.Audit[0].Name}
	snap, err := cached.Submit(spec)
	if err == nil {
		_, err = cached.Await(ctx, snap.ID)
	}
	if err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		start := time.Now()
		snap, err := cached.Submit(spec)
		if err != nil || snap.State != auditd.StateDone {
			return fmt.Errorf("cached audit: state %s, %v", snap.State, err)
		}
		lat.add("cached", time.Since(start))
	}
	out["auditd.cached_submit_us"] = lat.med("cached", time.Microsecond)
	return nil
}

// ladderTicks is how many churn ticks each store of the churn ladder runs.
const ladderTicks = 30

// churnLadder runs churn ticks on the bare store, then on WAL-backed stores
// under each fsync policy, and times recovery of what they wrote.
func churnLadder(env *runEnv, store *twitter.Store, tr *tracer, out map[string]float64) error {
	clock, ok := store.Clock().(*simclock.Virtual)
	if !ok {
		return errors.New("churn ladder: fixture store is not on a virtual clock")
	}
	lat := samples{}
	parents := make([]int, ladderTicks)
	// ticks runs the ladder's ticks on one store as spans under the same
	// tick of the previous store.
	ticks := func(rung string, st *twitter.Store, clock *simclock.Virtual) error {
		c, err := newChurner(st, clock, env.fx.Seed)
		if err != nil {
			return err
		}
		for i := range parents {
			start := time.Now()
			if err := c.tick(); err != nil {
				return fmt.Errorf("churn ladder, %s store: %w", rung, err)
			}
			id := tr.reserve()
			tr.add(i, id, parents[i], "churn.tick/"+rung, start, time.Now())
			at := start
			for _, step := range []struct {
				name string
				d    time.Duration
			}{
				{"twitter.add_follower_x4096", c.addTime},
				{"twitter.remove_followers", c.purgeTime},
				{"twitter.unfollow", c.unfollowTime},
				{"twitter.reads", c.readTime},
			} {
				tr.add(i, tr.reserve(), id, step.name+"/"+rung, at, at.Add(step.d))
				at = at.Add(step.d)
			}
			parents[i] = id
			if i < 2 {
				continue // the first purge has nothing to remove yet
			}
			lat.add(rung+"/add", c.addTime/burstSize)
			lat.add(rung+"/purge", c.purgeTime)
			lat.add(rung+"/unfollow", c.unfollowTime)
		}
		return nil
	}

	if err := ticks("bare", store, clock); err != nil {
		return err
	}
	out["twitter.add_follower_ns"] = lat.med("bare/add", time.Nanosecond)
	out["twitter.remove_followers_ms"] = lat.med("bare/purge", time.Millisecond)
	out["twitter.unfollow_ms"] = lat.med("bare/unfollow", time.Millisecond)

	dirs := map[wal.Policy]string{}
	for _, policy := range []wal.Policy{wal.PolicyOff, wal.PolicyInterval} {
		env.walDirs++
		dir := filepath.Join(env.workDir, fmt.Sprintf("wal-%d", env.walDirs))
		dirs[policy] = dir
		reg := metrics.NewRegistry()
		start := time.Now()
		st, wlog, clock, _, err := openChurnWAL(dir, env.fx.Snapshot, env.fx.Seed, reg, policy)
		if err != nil {
			return err
		}
		opened := time.Since(start).Seconds()
		err = ticks(policy.String(), st, clock)
		if cerr := wlog.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if policy == wal.PolicyOff {
			out["wal.open_seeded_s"] = opened
			snap := reg.Snapshot()
			records, _, _ := famTotals(snap, "wal_records_total", nil)
			logged, _, _ := famTotals(snap, "wal_bytes_total", nil)
			if records > 0 {
				out["wal.bytes_per_record"] = logged / records
			}
		}
	}
	out["wal.append_follow_ns"] = lat.med("off/add", time.Nanosecond) - lat.med("bare/add", time.Nanosecond)
	out["wal.append_purge_us"] = lat.med("off/purge", time.Microsecond) - lat.med("bare/purge", time.Microsecond)

	// Recovery of the interval store's directory: seed snapshot plus the
	// replay of every record the ticks logged. The recovered store then
	// takes single follows under the always policy, one fsync each.
	start := time.Now()
	st, wlog, clock, stats, err := openChurnWAL(dirs[wal.PolicyInterval], "", env.fx.Seed, nil, wal.PolicyAlways)
	if err != nil {
		return fmt.Errorf("churn ladder: recovery: %w", err)
	}
	defer wlog.Close()
	out["wal.recovery_s"] = time.Since(start).Seconds()
	if secs := stats.Elapsed.Seconds(); secs > 0 {
		out["wal.recovery_records_per_s"] = float64(stats.RecordsReplayed) / secs
	}
	c, err := newChurner(st, clock, env.fx.Seed)
	if err != nil {
		return err
	}
	clock.Advance(time.Hour)
	for i := 0; i < 50; i++ {
		_, d := tr.timed(ladderTicks+i, 0, "wal.commit/always", func() {
			if ferr := st.AddFollower(c.target, c.poolHi-twitter.UserID(i), clock.Now()); ferr != nil && err == nil {
				err = ferr
			}
		})
		lat.add("always", d)
	}
	if err != nil {
		return fmt.Errorf("churn ladder: always-policy follow: %w", err)
	}
	out["wal.always_commit_ms"] = lat.med("always", time.Millisecond)
	return writeSpans("churn-wal", tr.take())
}
