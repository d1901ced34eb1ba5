package twitterapi

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// lookupLoop is the reference the scan is defined against: one UsersLookup
// per 100 ids, every materialised profile reduced to its view.
func lookupLoop(t *testing.T, c Client, ids []twitter.UserID) []twitter.ProfileView {
	t.Helper()
	var views []twitter.ProfileView
	for start := 0; start < len(ids); start += UsersLookupBatchSize {
		batch, err := c.UsersLookup(ids[start:min(start+UsersLookupBatchSize, len(ids))])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range batch {
			views = append(views, p.View())
		}
	}
	return views
}

func scan(t *testing.T, c Client, ids []twitter.UserID) []twitter.ProfileView {
	t.Helper()
	var views []twitter.ProfileView
	if err := c.ScanProfiles(ids, func(v twitter.ProfileView) { views = append(views, v) }); err != nil {
		t.Fatal(err)
	}
	return views
}

// withGhosts interleaves ids the store has never issued into chrono.
func withGhosts(chrono []twitter.UserID) []twitter.UserID {
	ids := []twitter.UserID{0, -1}
	for i, id := range chrono {
		ids = append(ids, id)
		if i%17 == 0 {
			ids = append(ids, twitter.UserID(1<<40+i))
		}
	}
	return ids
}

func TestScanProfilesBatches(t *testing.T) {
	store, _, chrono := buildTarget(t, 250)
	client := NewDirectClient(NewService(store), simclock.NewVirtualAtEpoch(), ClientConfig{})
	views := scan(t, client, chrono)
	if len(views) != 250 {
		t.Fatalf("got %d views", len(views))
	}
	if client.CallsByEndpoint()[EndpointUsersLookup] != 3 {
		t.Fatalf("calls = %v, want 3 lookup batches", client.CallsByEndpoint())
	}
	for i, v := range views {
		if v.ID != chrono[i] {
			t.Fatalf("order not preserved at %d", i)
		}
	}
}

// TestScanSeesWhatLookupsSee: over either transport, for a batch that is not
// a multiple of 100 and is salted with unknown ids, the scan visits exactly
// the views that looping UsersLookup would have materialised.
func TestScanSeesWhatLookupsSee(t *testing.T) {
	store, target, chrono := buildTarget(t, 250)
	ids := append(withGhosts(chrono), target) // the target's counts come from its edge list
	clock := simclock.NewVirtualAtEpoch()
	svc := NewService(store)
	srv := httptest.NewServer(NewServerLimits(svc, clock, DefaultLimits()))
	t.Cleanup(srv.Close)

	want := lookupLoop(t, NewDirectClient(svc, clock, ClientConfig{}), ids)
	if len(want) != len(chrono)+1 {
		t.Fatalf("reference has %d views, want %d", len(want), len(chrono)+1)
	}
	for name, c := range map[string]Client{
		"direct": NewDirectClient(svc, clock, ClientConfig{}),
		"http":   NewHTTPClient(srv.URL, "scan-token", clock),
	} {
		if got := scan(t, c, ids); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scan visits %d views that differ from the %d looked up", name, len(got), len(want))
		}
	}
}

// TestScanCostsWhatLookupsCost: Table I and II are the model, so N scans
// must leave the call counts, the per-endpoint counts and the virtual clock
// exactly where N UsersLookup loops leave them — latency jitter drawn from
// the same stream, rate-limit sleeps at the same calls, across a window
// boundary.
func TestScanCostsWhatLookupsCost(t *testing.T) {
	store, _, chrono := buildTarget(t, 4030) // 43 calls a pass with the ghosts: the 180-call window closes in pass 5
	ids := withGhosts(chrono)
	cfg := ClientConfig{PerCallLatency: 400 * time.Millisecond, LatencyJitter: 0.2, Seed: 7}

	run := func(read func(Client)) (*DirectClient, *simclock.Virtual) {
		clock := simclock.NewVirtualAtEpoch()
		c := NewDirectClient(NewService(store), clock, cfg)
		for pass := 0; pass < 6; pass++ {
			read(c)
		}
		return c, clock
	}
	looped, loopClock := run(func(c Client) { lookupLoop(t, c, ids) })
	scanned, scanClock := run(func(c Client) { scan(t, c, ids) })

	if loopClock.Sleeps() == 0 || loopClock.Slept() < RateWindow/2 {
		t.Fatalf("the reference never waited out a rate-limit window (slept %v): the test does not cross one", loopClock.Slept())
	}
	if got, want := scanned.Calls(), looped.Calls(); got != want {
		t.Errorf("Calls() = %d after scans, %d after lookup loops", got, want)
	}
	if got, want := scanned.CallsByEndpoint(), looped.CallsByEndpoint(); !reflect.DeepEqual(got, want) {
		t.Errorf("CallsByEndpoint() = %v after scans, %v after lookup loops", got, want)
	}
	if got, want := scanClock.Now(), loopClock.Now(); !got.Equal(want) {
		t.Errorf("virtual clock at %v after scans, %v after lookup loops", got, want)
	}
	if got, want := scanClock.Sleeps(), loopClock.Sleeps(); got != want {
		t.Errorf("%d sleeps after scans, %d after lookup loops", got, want)
	}
}
