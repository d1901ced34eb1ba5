package twitterapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func headerWith(pairs ...string) http.Header {
	h := http.Header{}
	for i := 0; i < len(pairs); i += 2 {
		h.Set(pairs[i], pairs[i+1])
	}
	return h
}

func TestRetryBackoff(t *testing.T) {
	now := simclock.Epoch
	epoch := func(d time.Duration) string {
		return strconv.FormatInt(now.Add(d).Unix(), 10)
	}
	cases := []struct {
		name string
		h    http.Header
		want time.Duration
	}{
		{"reset in the future wins over Retry-After",
			headerWith("X-Rate-Limit-Reset", epoch(90*time.Second), "Retry-After", "900"),
			90 * time.Second},
		{"reset just passed means retry now, not another window",
			headerWith("X-Rate-Limit-Reset", epoch(-2*time.Second), "Retry-After", "900"),
			0},
		{"reset from a different clock domain falls back to Retry-After",
			headerWith("X-Rate-Limit-Reset", epoch(-2*365*24*time.Hour), "Retry-After", "30"),
			30 * time.Second},
		{"reset far in the future falls back too (server clock ahead)",
			headerWith("X-Rate-Limit-Reset", epoch(48*time.Hour), "Retry-After", "60"),
			60 * time.Second},
		{"unparseable reset falls back to Retry-After",
			headerWith("X-Rate-Limit-Reset", "soon", "Retry-After", "45"),
			45 * time.Second},
		{"no headers at all uses the conservative default",
			headerWith(),
			defaultRetryAfter},
		{"negative Retry-After uses the conservative default",
			headerWith("Retry-After", "-3"),
			defaultRetryAfter},
	}
	for _, tc := range cases {
		if got := retryBackoff(tc.h, now); got != tc.want {
			t.Errorf("%s: retryBackoff = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStale429DoesNotOverSleep is the regression for the open-loop-generator
// failure mode: a 429 whose rate-limit headers were stamped before the
// window boundary passed. The old client honoured the relative Retry-After
// verbatim and slept a whole extra window; the fixed client sees from
// X-Rate-Limit-Reset that the boundary is already behind it and retries
// immediately.
func TestStale429DoesNotOverSleep(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	windowEnd := clock.Now().Add(15 * time.Minute)

	var mu sync.Mutex
	rejections := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if clock.Now().Before(windowEnd) {
			rejections++
			// Headers stamped for the window boundary, as the real server
			// does; Retry-After is relative to the stamping instant.
			w.Header().Set("Retry-After", "900")
			w.Header().Set("X-Rate-Limit-Reset", strconv.FormatInt(windowEnd.Unix(), 10))
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ids":[1],"next_cursor":0}`))
	}))
	defer srv.Close()

	client := NewHTTPClient(srv.URL, "tok", clock)

	// First call: rejected once, sleeps exactly to the boundary, succeeds.
	if _, err := client.FollowerIDs(1, CursorFirst); err != nil {
		t.Fatal(err)
	}
	if slept := clock.Slept(); slept != 15*time.Minute {
		t.Fatalf("slept %v to reach the boundary, want exactly %v", slept, 15*time.Minute)
	}

	// Second call: the boundary has passed. Even if a racing sibling's 429
	// were still in flight, its headers would be stale — simulate that by
	// pinning the clock past windowEnd and confirming no further sleep ever
	// happens (the old code would have slept Retry-After's full 900s here
	// on any rejection carrying stale headers).
	if _, err := client.FollowerIDs(1, CursorFirst); err != nil {
		t.Fatal(err)
	}
	if slept := clock.Slept(); slept != 15*time.Minute {
		t.Fatalf("total slept %v after boundary passed, want still %v", slept, 15*time.Minute)
	}
	if rejections != 1 {
		t.Fatalf("server rejected %d times, want 1 (no hammering, no redundant retries)", rejections)
	}
}

// TestServerAdvertisesReset pins the server half of the contract: a 429
// carries an X-Rate-Limit-Reset stamp that is never before the true window
// boundary.
func TestServerAdvertisesReset(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	target := store.MustCreateUser(twitter.UserParams{ScreenName: "t"})
	srv := httptest.NewServer(NewServerLimits(NewService(store), clock, DefaultLimits()))
	defer srv.Close()

	get := func() *http.Response {
		req, err := http.NewRequest(http.MethodGet,
			srv.URL+"/1.1/followers/ids.json?user_id="+strconv.FormatInt(int64(target), 10)+"&cursor=-1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer reset-probe")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	start := clock.Now()
	for i := 0; i < 15; i++ {
		if resp := get(); resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("16th call: status %d, want 429", resp.StatusCode)
	}
	raw := resp.Header.Get("X-Rate-Limit-Reset")
	if raw == "" {
		t.Fatal("429 carries no X-Rate-Limit-Reset")
	}
	epoch, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		t.Fatalf("bad reset stamp %q: %v", raw, err)
	}
	boundary := start.Add(RateWindow)
	reset := time.Unix(epoch, 0)
	if reset.Before(boundary) {
		t.Fatalf("reset %v is before the window boundary %v", reset, boundary)
	}
	if reset.After(boundary.Add(time.Second)) {
		t.Fatalf("reset %v overshoots the boundary %v by more than the ceil second", reset, boundary)
	}
}
