package router

import (
	"bytes"
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

// cutShortBackend answers followers/ids with idsPage(2000) and
// users/lookup with fakeLookupBody of the ids asked for, each with its
// Content-Length. When cut it declares the length, writes half the body
// and drops the connection.
type cutShortBackend struct{ cut bool }

func (c cutShortBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body := idsPage(2000)
	if r.URL.Path == pathUsersLookup {
		ids, _ := parseIDList(r.URL.Query().Get("user_id"))
		body = fakeLookupBody(ids, knownLookupID)
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

func knownLookupID(id int64) bool { return id%7 != 0 }

// TestUpstreamBodyCutShortFailsOver: a body shorter than its declared
// length is an attempt error, never short bytes. A routed page and a
// scattered lookup whose primary cuts its body short are answered from the
// replica, each with one failover; a body sent chunked, with no length,
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

	ids := []int64{1, 40, 2, 2, 14, 41, 3, 77, 40}
	if ring := NewRing(DefaultSlots, 2); ring.Owner(ring.Slot(1)) == ring.Owner(ring.Slot(40)) {
		t.Fatal("ids 1 and 40 no longer span both ring members")
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	get(front.Client(), front.URL+pathUsersLookup+"?user_id="+strings.Join(parts, ","),
		fakeLookupBody(ids, knownLookupID))
	if got := rt.m.failovers.Value(); got != 2 {
		t.Errorf("router_failovers_total = %d after a lookup with one cut-short part, want 2", got)
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
