package router

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
)

const fastPage = `{"ids":[7],"next_cursor":0,"next_cursor_str":"0","previous_cursor":0,"previous_cursor_str":"0"}` + "\n"

// TestHedgedReadStalledPrimary is the hedged-read regression on a virtual
// clock: the primary holder stalls, so after the cold hedge delay exactly
// one hedge fires at the replica, the replica's answer wins and is relayed
// byte-for-byte, and the stalled loser is torn down without being charged
// a health failure. Close afterwards proves the bookkeeping goroutines all
// drained (the -race leg doubles as the leak check).
func TestHedgedReadStalledPrimary(t *testing.T) {
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // torn down by the router after the race
		case <-time.After(30 * time.Second): // safety net only
		}
	}))
	defer stalled.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, fastPage)
	}))
	defer fast.Close()

	vclock := simclock.NewVirtualAtEpoch()
	reg := metrics.NewRegistry()
	rt, err := New(Config{
		// user_id=1 lands in slot 0: backend 0 (stalled) owns it, backend 1
		// (fast) replicates it.
		Backends:      []string{stalled.URL, fast.URL},
		Clock:         vclock,
		Registry:      reg,
		ProbeInterval: -1, // a virtual clock would spin the probe loop
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if string(body) != fastPage {
		t.Fatalf("hedged response not relayed byte-for-byte:\n got %q\nwant %q", body, fastPage)
	}

	if got := rt.m.hedges.Value(); got != 1 {
		t.Errorf("router_hedges_total = %d, want exactly 1", got)
	}
	if got := rt.m.hedgeWins.Value(); got != 1 {
		t.Errorf("router_hedge_wins_total = %d, want 1", got)
	}
	// The hedge timer is the only Sleep in the request path: it must have
	// waited the cold (pre-warmup) delay, once.
	if got := vclock.Sleeps(); got != 1 {
		t.Errorf("clock saw %d sleeps, want 1 (the hedge timer)", got)
	}
	if got := vclock.Slept(); got != hedgeDefault {
		t.Errorf("clock slept %v, want the cold hedge delay %v", got, hedgeDefault)
	}
	// Losing a hedge is not a health failure: the stalled backend was
	// cancelled by us, not broken.
	if got := rt.Healthy(); got != 2 {
		t.Errorf("Healthy() = %d after hedge, want 2", got)
	}

	// Close waits out the inflight WaitGroup: if the loser's goroutine or
	// the timer leaked, this hangs and the test times out.
	rt.Close()
	if got := rt.backends[0].fails.Load(); got != 0 {
		t.Errorf("stalled backend charged %d failures for losing a hedge", got)
	}
}

// TestSingleNodeRingNeverHedges: a one-node ring has no second holder, so
// the hedge timer must never arm.
func TestSingleNodeRingNeverHedges(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, fastPage)
	}))
	defer fast.Close()

	vclock := simclock.NewVirtualAtEpoch()
	rt, err := New(Config{
		Backends:      []string{fast.URL},
		Clock:         vclock,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	for _, path := range []string{
		"/1.1/followers/ids.json?user_id=1&cursor=-1",
		"/1.1/users/show.json?screen_name=davc",
		"/1.1/users/lookup.json?user_id=1,40",
	} {
		resp, err := front.Client().Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if vclock.Sleeps() != 0 {
		t.Errorf("one-node ring armed the hedge timer %d times", vclock.Sleeps())
	}
}

// TestAdaptiveHedgeDelay: the delay follows the upstream p99 once warm,
// clamped into [hedgeMin, hedgeMax].
func TestAdaptiveHedgeDelay(t *testing.T) {
	rt, err := New(Config{
		Backends:      []string{"http://127.0.0.1:0"},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if got := rt.hedgeDelay(); got != hedgeDefault {
		t.Errorf("cold hedge delay = %v, want default %v", got, hedgeDefault)
	}
	for i := 0; i < 200; i++ {
		rt.m.upstream.Record(20 * time.Millisecond)
	}
	got := rt.hedgeDelay()
	if got < hedgeMin || got > hedgeMax {
		t.Errorf("warm hedge delay %v escaped the clamp", got)
	}
	if got < 15*time.Millisecond {
		t.Errorf("warm hedge delay %v, want ~p99 of the 20ms samples", got)
	}
	for i := 0; i < 2000; i++ {
		rt.m.upstream.Record(500 * time.Millisecond)
	}
	if got := rt.hedgeDelay(); got != hedgeMax {
		t.Errorf("slow-fleet hedge delay %v, want clamped to hedgeMax", got)
	}
}

// idsPage is a followers/ids page of n ids, as a node prints one.
func idsPage(n int) []byte {
	b := []byte(`{"ids":[`)
	for id := 1; id <= n; id++ {
		if id > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, `],"next_cursor":0,"next_cursor_str":"0","previous_cursor":0,"previous_cursor_str":"0"}`+"\n"...)
}

// lookupBody is what a node holding every account answers to a users/lookup
// id list: the known ids in list order, duplicates kept, unknown and
// unparseable entries dropped, compact elements.
func lookupBody(list string) []byte {
	b := []byte{'['}
	for _, part := range strings.Split(list, ",") {
		id, err := strconv.ParseInt(part, 10, 64)
		if err != nil || id%7 == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"id":%d,"id_str":"%d"}`, id, id)
	}
	return append(b, "]\n"...)
}

// cutShortBackend answers followers/ids with idsPage(2000) and
// users/lookup with lookupBody of the list asked for, each with its
// Content-Length. When cut it declares the length, writes half the body
// and drops the connection.
type cutShortBackend struct{ cut bool }

func (c cutShortBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body := idsPage(2000)
	if r.URL.Path == pathUsersLookup {
		body = lookupBody(r.URL.Query().Get("user_id"))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if !c.cut {
		_, _ = w.Write(body)
		return
	}
	_, _ = w.Write(body[:len(body)/2])
	w.(http.Flusher).Flush()
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

// TestUpstreamBodyCutShortFailsOver: a body shorter than its declared
// length is an attempt error, never short bytes. A routed page and a
// lookup whose first holder cuts its body short are answered from the
// other holder, each with one failover; a body sent chunked, with no length,
// still arrives whole and goes out with the router's own Content-Length;
// and a HEAD, whose answer declares a length but carries no body, is
// relayed 200 with no failover or ejection.
func TestUpstreamBodyCutShortFailsOver(t *testing.T) {
	cut := httptest.NewServer(cutShortBackend{cut: true})
	defer cut.Close()
	whole := httptest.NewServer(cutShortBackend{})
	defer whole.Close()
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := idsPage(2000)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		_, _ = w.Write(body[len(body)/2:])
	}))
	defer chunked.Close()

	router := func(backends ...string) (*Router, *httptest.Server) {
		rt, err := New(Config{Backends: backends, Registry: metrics.NewRegistry(), ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		rt.noHedge = true // one attempt per holder: only failover can answer
		t.Cleanup(rt.Close)
		front := httptest.NewServer(rt)
		t.Cleanup(front.Close)
		return rt, front
	}
	get := func(c *http.Client, url string, want []byte) *http.Response {
		t.Helper()
		resp, err := c.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET %s: HTTP %d (%v)\n got %.200q\nwant %.200q", url, resp.StatusCode, err, body, want)
		}
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) > 0 {
			t.Fatalf("GET %s: Content-Length %d, Transfer-Encoding %v; want %d and none",
				url, resp.ContentLength, resp.TransferEncoding, len(want))
		}
		return resp
	}

	// user_id=1 lands in slot 0: backend 0 (cut) owns it, backend 1 (whole)
	// replicates it.
	rt, front := router(cut.URL, whole.URL)
	get(front.Client(), front.URL+"/1.1/followers/ids.json?user_id=1&cursor=-1", idsPage(2000))
	if got := rt.m.failovers.Value(); got != 1 {
		t.Errorf("router_failovers_total = %d after one cut-short page, want 1", got)
	}

	// The list spans both ranges and goes whole to its key slot's first
	// holder, the cut backend.
	const list = "1,40,2,2,14,41,3,77"
	if first, _ := rt.route(rt.keySlot(list), true); first.index != 0 {
		t.Fatalf("lookup %q routes to backend %d first, want the cut backend 0", list, first.index)
	}
	get(front.Client(), front.URL+pathUsersLookup+"?user_id="+list, lookupBody(list))
	if got := rt.m.failovers.Value(); got != 2 {
		t.Errorf("router_failovers_total = %d after a cut-short lookup, want 2", got)
	}

	resp, err := chunked.Client().Get(chunked.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.ContentLength != -1 || len(resp.TransferEncoding) == 0 {
		t.Fatalf("chunked backend declared Content-Length %d, Transfer-Encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	_, front = router(chunked.URL, chunked.URL)
	get(front.Client(), front.URL+"/1.1/followers/ids.json?user_id=1&cursor=-1", idsPage(2000))

	// A HEAD answer declares the length of a body it does not carry: the
	// router must not read that as a body cut short, fail over and eject.
	rt, front = router(whole.URL, whole.URL)
	for i := 0; i < failThreshold+1; i++ {
		resp, err := front.Client().Head(front.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %d: HTTP %d, want 200", i, resp.StatusCode)
		}
	}
	if got := rt.m.failovers.Value(); got != 0 {
		t.Errorf("router_failovers_total = %d after HEAD requests, want 0", got)
	}
	for i, c := range rt.m.ejections {
		if got := c.Value(); got != 0 {
			t.Errorf("backend %d: router_ejections_total = %d after HEAD requests, want 0", i, got)
		}
	}
	if got := rt.Healthy(); got != 2 {
		t.Errorf("Healthy() = %d after HEAD requests, want 2", got)
	}
}

// TestSizedReadsKeepConnectionsAlive: a body read to its declared length
// leaves the upstream connection reusable — sequential requests share one.
func TestSizedReadsKeepConnectionsAlive(t *testing.T) {
	var conns atomic.Int32
	node := httptest.NewUnstartedServer(cutShortBackend{})
	node.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	node.Start()
	defer node.Close()
	rt, err := New(Config{Backends: []string{node.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	for i := 0; i < 10; i++ {
		resp, err := front.Client().Get(front.URL + "/1.1/followers/ids.json?user_id=1&cursor=-1")
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("10 sequential requests opened %d upstream connections, want 1", got)
	}
}

// TestHedgeRaces pins the hedge state machine on a virtual clock, where the
// hedge timer fires at once. The primary holder (backend 0 for user_id=1)
// answers only once the hedge has reached the replica, so every case runs
// with the hedge launched, and each makes exactly the two attempts.
func TestHedgeRaces(t *testing.T) {
	const page = "/1.1/followers/ids.json?user_id=1&cursor=-1"
	type race struct {
		rt       *Router
		front    *httptest.Server
		hedgeIn  chan struct{} // closed when the replica has the hedge
		attempts atomic.Int32
	}
	setup := func(t *testing.T, primary, replica func(*race, http.ResponseWriter, *http.Request)) *race {
		r := &race{hedgeIn: make(chan struct{})}
		p := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.attempts.Add(1)
			<-r.hedgeIn
			primary(r, w, req)
		}))
		t.Cleanup(p.Close)
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.attempts.Add(1)
			close(r.hedgeIn)
			replica(r, w, req)
		}))
		t.Cleanup(s.Close)
		rt, err := New(Config{
			Backends:      []string{p.URL, s.URL},
			Clock:         simclock.NewVirtualAtEpoch(),
			Registry:      metrics.NewRegistry(),
			ProbeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		r.rt = rt
		r.front = httptest.NewServer(rt)
		t.Cleanup(r.front.Close)
		return r
	}
	answer := func(status int, body string) func(*race, http.ResponseWriter, *http.Request) {
		return func(_ *race, w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = io.WriteString(w, body)
		}
	}
	// after waits until the router has charged backend b's failure, so the
	// other attempt answers after b's settled.
	after := func(b int, next func(*race, http.ResponseWriter, *http.Request)) func(*race, http.ResponseWriter, *http.Request) {
		return func(r *race, w http.ResponseWriter, req *http.Request) {
			for deadline := time.Now().Add(10 * time.Second); r.rt.backends[b].fails.Load() == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			next(r, w, req)
		}
	}
	const oops = `{"errors":[{"code":131,"message":"Internal error"}]}` + "\n"
	check := func(t *testing.T, r *race, status int, body string, hedges, wins, failovers uint64) {
		t.Helper()
		resp, err := r.front.Client().Get(r.front.URL + page)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status || string(got) != body {
			t.Fatalf("HTTP %d %q, want %d %q", resp.StatusCode, got, status, body)
		}
		m := r.rt.m
		if m.hedges.Value() != hedges || m.hedgeWins.Value() != wins || m.failovers.Value() != failovers {
			t.Errorf("hedges %d, hedge wins %d, failovers %d; want %d, %d, %d",
				m.hedges.Value(), m.hedgeWins.Value(), m.failovers.Value(), hedges, wins, failovers)
		}
		if got := r.attempts.Load(); got != 2 {
			t.Errorf("%d upstream attempts, want 2", got)
		}
	}

	t.Run("primary 5xx, hedge 200", func(t *testing.T) {
		r := setup(t, answer(http.StatusInternalServerError, oops), after(0, answer(http.StatusOK, fastPage)))
		check(t, r, http.StatusOK, fastPage, 1, 1, 0)
	})

	t.Run("primary 200, hedge stalls", func(t *testing.T) {
		torn := make(chan struct{})
		r := setup(t, answer(http.StatusOK, fastPage), func(_ *race, _ http.ResponseWriter, req *http.Request) {
			select {
			case <-req.Context().Done():
				close(torn)
			case <-time.After(30 * time.Second): // safety net only
			}
		})
		check(t, r, http.StatusOK, fastPage, 1, 0, 0)
		closed := make(chan struct{})
		go func() { r.rt.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close is still waiting on the stalled hedge")
		}
		select {
		case <-torn:
		case <-time.After(5 * time.Second):
			t.Fatal("the replica never saw its hedge torn down")
		}
		if got := r.rt.backends[1].fails.Load(); got != 0 || r.rt.Healthy() != 2 {
			t.Errorf("torn-down hedge charged %d failures, Healthy() = %d; want 0, 2", got, r.rt.Healthy())
		}
	})

	t.Run("hedge 5xx, primary 200", func(t *testing.T) {
		r := setup(t, after(1, answer(http.StatusOK, fastPage)), answer(http.StatusInternalServerError, oops))
		check(t, r, http.StatusOK, fastPage, 1, 0, 0)
	})

	t.Run("both 5xx", func(t *testing.T) {
		const replicaOops = `{"errors":[{"code":130,"message":"Over capacity"}]}` + "\n"
		r := setup(t, answer(http.StatusInternalServerError, oops), after(0, answer(http.StatusServiceUnavailable, replicaOops)))
		check(t, r, http.StatusInternalServerError, oops, 1, 0, 0)
	})
}
