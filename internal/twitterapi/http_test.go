package twitterapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fakeproject/internal/metrics"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// newHTTPFixture serves a 12K-follower target over a real HTTP server and
// returns a client wired to the same virtual clock.
func newHTTPFixture(t *testing.T) (*HTTPClient, twitter.UserID, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	target, err := store.CreateUser(twitter.UserParams{
		ScreenName: "target",
		CreatedAt:  simclock.Epoch.AddDate(-2, 0, 0),
		LastTweet:  simclock.Epoch.AddDate(0, 0, -3),
		Statuses:   300,
	})
	if err != nil {
		t.Fatal(err)
	}
	at := simclock.Epoch.AddDate(-1, 0, 0)
	for i := 0; i < 12000; i++ {
		id := store.MustCreateUser(twitter.UserParams{
			Statuses: 5, LastTweet: at, Friends: 10, Bio: true,
		})
		if err := store.AddFollower(target, id, at); err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Minute)
	}
	srv := httptest.NewServer(NewServerLimits(NewService(store), clock, DefaultLimits()))
	t.Cleanup(srv.Close)
	return NewHTTPClient(srv.URL, "test-token", clock), target, clock
}

// TestHTTPBadCursorIs400: a fabricated cursor comes back as a 400 with the
// API's "bad cursor" error code, not as a 404 user miss — clients must be
// able to distinguish "your token is garbage" from "no such account".
func TestHTTPBadCursorIs400(t *testing.T) {
	client, target, _ := newHTTPFixture(t)
	_, err := client.FollowerIDs(target, 99999)
	if err == nil {
		t.Fatal("fabricated cursor accepted over HTTP")
	}
	if !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("err = %v, want an HTTP 400", err)
	}
	// Opaque cursors minted by the server round-trip through the wire
	// format and keep working.
	first, err := client.FollowerIDs(target, CursorFirst)
	if err != nil || first.NextCursor == CursorDone {
		t.Fatalf("first page = %+v, %v", first, err)
	}
	second, err := client.FollowerIDs(target, first.NextCursor)
	if err != nil || len(second.IDs) != FollowerIDsPageSize {
		t.Fatalf("second page via wire cursor = %d ids, %v", len(second.IDs), err)
	}
}

func TestHTTPUserByScreenName(t *testing.T) {
	client, _, _ := newHTTPFixture(t)
	p, err := client.UserByScreenName("target")
	if err != nil {
		t.Fatal(err)
	}
	if p.ScreenName != "target" || p.FollowersCount != 12000 || p.StatusesCount != 300 {
		t.Fatalf("profile = %+v", p)
	}
	if p.LastTweetAt.IsZero() {
		t.Fatal("last_tweet_at lost in transit")
	}
	if _, err := client.UserByScreenName("ghost"); err == nil {
		t.Fatal("expected error for unknown user")
	} else if !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

func TestHTTPRateLimit429AndRecovery(t *testing.T) {
	client, target, clock := newHTTPFixture(t)
	// Burn the followers/ids budget (15/window) plus one: the 16th call
	// must transparently back off using Retry-After on the shared virtual
	// clock and then succeed.
	start := clock.Now()
	for i := 0; i < 16; i++ {
		if _, err := client.FollowerIDs(target, CursorFirst); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if elapsed := clock.Now().Sub(start); elapsed < RateWindow {
		t.Fatalf("virtual clock advanced only %v, want >= %v", elapsed, RateWindow)
	}
	// The retried calls are also counted (one retry for call 16).
	if client.Calls() != 17 {
		t.Fatalf("Calls = %d, want 17 (16 + 1 retry)", client.Calls())
	}
}

func TestHTTPRateLimitPerToken(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	target, _ := store.CreateUser(twitter.UserParams{ScreenName: "t"})
	srv := httptest.NewServer(NewServerLimits(NewService(store), clock, DefaultLimits()))
	t.Cleanup(srv.Close)

	a := NewHTTPClient(srv.URL, "token-a", clock)
	b := NewHTTPClient(srv.URL, "token-b", clock)
	// Token A burns its window.
	for i := 0; i < 15; i++ {
		if _, err := a.FollowerIDs(target, CursorFirst); err != nil {
			t.Fatal(err)
		}
	}
	// Token B must still be free: no clock advance.
	start := clock.Now()
	if _, err := b.FollowerIDs(target, CursorFirst); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != start {
		t.Fatal("token B was throttled by token A's usage")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	client, _, _ := newHTTPFixture(t)
	if _, err := client.FollowerIDs(99999, CursorFirst); err == nil {
		t.Fatal("unknown target should error")
	}
	big := make([]twitter.UserID, 101)
	if _, err := client.UsersLookup(big); err == nil {
		t.Fatal("oversized lookup should error client-side")
	}
}

// TestAdminResolve: /admin/resolve answers the id of a name users/show
// knows as a bare decimal and 404 for any other, still for a token that
// has spent every Table I budget, and an observed server keeps no series
// for it.
func TestAdminResolve(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	target := store.MustCreateUser(twitter.UserParams{ScreenName: "target"})
	synthetic, err := store.ScreenName(store.MustCreateUser(twitter.UserParams{}))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv := NewServerObserved(NewService(store), clock, DefaultLimits(), reg)
	serve := func(uri string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, uri, nil)
		req.Header.Set("Authorization", "Bearer spent")
		srv.ServeHTTP(rec, req)
		return rec
	}
	for _, rt := range srv.routes() {
		for spent := 0; serve(rt.path+"?user_id=1").Code != http.StatusTooManyRequests; spent++ {
			if spent > 1000 {
				t.Fatalf("%s never answers 429", rt.endpoint)
			}
		}
	}
	for _, tc := range []struct {
		query, body string
		status      int
	}{
		{"?screen_name=target", strconv.FormatInt(int64(target), 10), http.StatusOK},
		{"?screen_name=ghost", "", http.StatusNotFound},
		{"?screen_name=" + synthetic, "", http.StatusNotFound},
		{"", "", http.StatusNotFound},
	} {
		rec := serve("/admin/resolve" + tc.query)
		if rec.Code != tc.status || tc.status == http.StatusOK && rec.Body.String() != tc.body {
			t.Errorf("/admin/resolve%s: HTTP %d %q, want %d %q", tc.query, rec.Code, rec.Body, tc.status, tc.body)
		}
	}
	var exposed bytes.Buffer
	if err := reg.WritePrometheus(&exposed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposed.String(), `endpoint="admin/resolve"`) {
		t.Error("an observed server keeps series for /admin/resolve")
	}
}
