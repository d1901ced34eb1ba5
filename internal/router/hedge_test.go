package router

import (
	"io"
	"net/http"
	"net/http/httptest"
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
