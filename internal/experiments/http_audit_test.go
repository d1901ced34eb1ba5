package experiments

import (
	"math"
	"net/http/httptest"
	"testing"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/tools/socialbakers"
	"fakeproject/internal/tools/twitteraudit"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// TestAuditsOverHTTP runs two of the analytics engines against the API
// served over a real HTTP connection and checks they reach the same
// verdicts as the in-process transport — the property that makes the
// simulated platform a drop-in stand-in for api.twitter.com.
func TestAuditsOverHTTP(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 31)
	gen := population.NewGenerator(store, 31)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  6000,
		Layout: population.Layout{
			{Width: 2000, Mix: population.Mix{Inactive: 0.2, Fake: 0.4, Genuine: 0.4}},
			{Width: 0, Mix: population.Mix{Inactive: 0.7, Fake: 0.05, Genuine: 0.25}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)
	srv := httptest.NewServer(twitterapi.NewServerLimits(svc, clock, twitterapi.DefaultLimits()))
	t.Cleanup(srv.Close)

	httpClient := twitterapi.NewHTTPClient(srv.URL, "sb-token", clock)
	directClient := twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 50})

	overHTTP := socialbakers.New(httpClient, clock)
	inProcess := socialbakers.New(directClient, clock)

	httpReport, err := overHTTP.Audit("subject")
	if err != nil {
		t.Fatalf("HTTP audit: %v", err)
	}
	directReport, err := inProcess.Audit("subject")
	if err != nil {
		t.Fatalf("direct audit: %v", err)
	}
	// Socialbakers assesses the full newest-2000 window deterministically,
	// so the two transports must agree exactly.
	if httpReport.InactivePct != directReport.InactivePct ||
		httpReport.FakePct != directReport.FakePct {
		t.Fatalf("transports disagree: HTTP %.1f/%.1f vs direct %.1f/%.1f",
			httpReport.InactivePct, httpReport.FakePct,
			directReport.InactivePct, directReport.FakePct)
	}
	if httpReport.SampleSize != 2000 {
		t.Fatalf("HTTP sample = %d", httpReport.SampleSize)
	}

	// Twitteraudit samples the whole 5000-window here (deterministic
	// identity sample since window < 5000... actually 6000 > 5000, the
	// sample is the full newest-5000 page): verdicts agree within the
	// randomised-sample tolerance.
	taHTTP := twitteraudit.New(twitterapi.NewHTTPClient(srv.URL, "ta-token", clock), clock, 8)
	taDirect := twitteraudit.New(twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 50}), clock, 8)
	a, err := taHTTP.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	b, err := taDirect.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.FakePct-b.FakePct) > 0.01 {
		t.Fatalf("twitteraudit transports disagree: %.2f vs %.2f", a.FakePct, b.FakePct)
	}
}

// TestHTTPAuditRateLimitRecovery drives a tool into the rate limit over
// HTTP and checks it recovers via Retry-After on the shared virtual clock.
func TestHTTPAuditRateLimitRecovery(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 32)
	gen := population.NewGenerator(store, 32)
	// 90K followers → 18 ids pages per crawl: over the 15-page budget.
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "big",
		Followers:  90000,
		Layout:     population.Layout{{Width: 0, Mix: population.Mix{Genuine: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)
	srv := httptest.NewServer(twitterapi.NewServerLimits(svc, clock, twitterapi.DefaultLimits()))
	t.Cleanup(srv.Close)

	client := twitterapi.NewHTTPClient(srv.URL, "crawler", clock)
	start := clock.Now()
	ids, err := twitterapi.AllFollowerIDs(client, mustID(t, store, "big"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 90000 {
		t.Fatalf("ids = %d", len(ids))
	}
	if elapsed := clock.Now().Sub(start); elapsed < twitterapi.RateWindow {
		t.Fatalf("crawl elapsed %v, want at least one window of back-off", elapsed)
	}
}

func mustID(t *testing.T, store *twitter.Store, name string) twitter.UserID {
	t.Helper()
	id, err := store.LookupName(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
