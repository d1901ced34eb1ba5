package twitterapi

import (
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

func TestDirectClientAccountsCalls(t *testing.T) {
	store, target, _ := buildTarget(t, 12000)
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{})

	ids, err := AllFollowerIDs(client, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 12000 {
		t.Fatalf("got %d ids", len(ids))
	}
	if client.Calls() != 3 {
		t.Fatalf("Calls = %d, want 3", client.Calls())
	}
	by := client.CallsByEndpoint()
	if by[EndpointFollowerIDs] != 3 {
		t.Fatalf("CallsByEndpoint = %v", by)
	}
}

func TestDirectClientLatencyModel(t *testing.T) {
	store, target, _ := buildTarget(t, 12000)
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{PerCallLatency: 2 * time.Second})
	start := clock.Now()
	if _, err := AllFollowerIDs(client, target); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start)
	if elapsed != 6*time.Second {
		t.Fatalf("3 calls at 2s = %v, want 6s", elapsed)
	}
}

func TestDirectClientLatencyJitterBounded(t *testing.T) {
	store, target, _ := buildTarget(t, 100)
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{
		PerCallLatency: time.Second, LatencyJitter: 0.25, Seed: 9,
	})
	start := clock.Now()
	for i := 0; i < 10; i++ {
		if _, err := client.FollowerIDs(target, CursorFirst); err != nil {
			t.Fatal(err)
		}
	}
	per := clock.Now().Sub(start) / 10
	if per < 750*time.Millisecond || per > 1250*time.Millisecond {
		t.Fatalf("mean per-call latency %v outside jitter bounds", per)
	}
}

func TestDirectClientRateLimitKicksIn(t *testing.T) {
	// 16 followers/ids calls exceed the 15-per-window budget: the 16th must
	// wait for the window to roll.
	store, target, _ := buildTarget(t, 80000) // 16 pages
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{})
	start := clock.Now()
	ids, err := AllFollowerIDs(client, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 80000 {
		t.Fatalf("got %d ids", len(ids))
	}
	if elapsed := clock.Now().Sub(start); elapsed != RateWindow {
		t.Fatalf("elapsed = %v, want one window (%v)", elapsed, RateWindow)
	}
}

func TestDirectClientMultipleTokens(t *testing.T) {
	// With 2 tokens the 16-page crawl fits in the doubled burst budget.
	store, target, _ := buildTarget(t, 80000)
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{Tokens: 2})
	start := clock.Now()
	if _, err := AllFollowerIDs(client, target); err != nil {
		t.Fatal(err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0 with doubled budget", elapsed)
	}
}

func TestFollowerIDsUpTo(t *testing.T) {
	store, target, chrono := buildTarget(t, 12000)
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{})
	got, err := FollowerIDsUpTo(client, target, 7000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7000 {
		t.Fatalf("got %d ids, want 7000", len(got))
	}
	// Must be the NEWEST 7000.
	for i := 0; i < 7000; i++ {
		if got[i] != chrono[len(chrono)-1-i] {
			t.Fatalf("newest-window content wrong at %d", i)
		}
	}
	if client.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2 pages", client.Calls())
	}
}

func TestFollowerIDsUpToShortList(t *testing.T) {
	store, target, _ := buildTarget(t, 100)
	svc := NewService(store)
	client := NewDirectClient(svc, simclock.NewVirtualAtEpoch(), ClientConfig{})
	got, err := FollowerIDsUpTo(client, target, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d, want all 100", len(got))
	}
}

func TestUserByScreenName(t *testing.T) {
	store, _, _ := buildTarget(t, 5)
	svc := NewService(store)
	client := NewDirectClient(svc, simclock.NewVirtualAtEpoch(), ClientConfig{})
	p, err := client.UserByScreenName("target")
	if err != nil || p.ScreenName != "target" {
		t.Fatalf("UserByScreenName = %+v, %v", p, err)
	}
}

func TestObamaScaleCrawlTime(t *testing.T) {
	// Analytic sanity check behind the paper's "27 days" claim, exercised
	// through the real limiter at reduced scale: fetching 600K follower IDs
	// (120 pages) at 15 pages per 15-minute window takes 7 windows of
	// waiting = 105 minutes.
	store, target, _ := buildTarget(t, 0)
	_ = target
	svc := NewService(store)
	clock := simclock.NewVirtualAtEpoch()
	client := NewDirectClient(svc, clock, ClientConfig{})
	start := clock.Now()
	for i := 0; i < 120; i++ {
		// Empty target: each call is a page fetch of an empty list, but it
		// still burns a rate-limit slot, which is what we are measuring.
		if _, err := client.FollowerIDs(target, CursorFirst); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clock.Now().Sub(start)
	if want := 7 * RateWindow; elapsed != want {
		t.Fatalf("120 pages elapsed = %v, want %v", elapsed, want)
	}
}
