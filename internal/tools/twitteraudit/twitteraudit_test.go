package twitteraudit

import (
	"testing"
	"time"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

func fixture(t *testing.T, followers int, layout population.Layout) (*Audit, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 6)
	gen := population.NewGenerator(store, 6)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  followers,
		Layout:     layout,
	}); err != nil {
		t.Fatal(err)
	}
	client := twitterapi.NewDirectClient(twitterapi.NewService(store), clock,
		twitterapi.ClientConfig{PerCallLatency: 900 * time.Millisecond, Tokens: 50})
	return New(client, clock, 6), clock
}

func TestScoreArchetypes(t *testing.T) {
	now := simclock.Epoch
	genuine := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-2, 0, 0)},
		FollowersCount: 800, FriendsCount: 400, StatusesCount: 4000,
		LastTweetAt: now.AddDate(0, 0, -2),
	}
	if s := Score(genuine.View(), now); s < 4 {
		t.Fatalf("genuine score = %.2f, want >= 4", s)
	}
	if IsFake(genuine.View(), now) {
		t.Fatal("genuine flagged fake")
	}

	egg := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(0, -3, 0)},
		FollowersCount: 2, FriendsCount: 1500, StatusesCount: 0,
	}
	if s := Score(egg.View(), now); s > 0.5 {
		t.Fatalf("egg score = %.2f, want ≈0", s)
	}
	if !IsFake(egg.View(), now) {
		t.Fatal("egg not flagged fake")
	}

	// Mass-following spam bot: active and tweeting, but the lopsided
	// ratio forfeits recency credit.
	bot := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(0, -6, 0)},
		FollowersCount: 10, FriendsCount: 3000, StatusesCount: 200,
		LastTweetAt: now.AddDate(0, 0, -1),
	}
	if !IsFake(bot.View(), now) {
		t.Fatalf("spam bot not flagged fake (score %.2f)", Score(bot.View(), now))
	}
}

func TestScoreBounds(t *testing.T) {
	now := simclock.Epoch
	best := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-5, 0, 0)},
		FollowersCount: 100000, FriendsCount: 100, StatusesCount: 100000,
		LastTweetAt: now.Add(-time.Hour),
	}
	if s := Score(best.View(), now); s > MaxScore {
		t.Fatalf("score %.2f exceeds the five-point scale", s)
	}
	if s := Score(twitter.ProfileView{}, now); s < 0 {
		t.Fatalf("score %.2f below zero", s)
	}
}

func TestAuditNoInactiveClass(t *testing.T) {
	audit, _ := fixture(t, 3000, population.Layout{
		{Width: 0, Mix: population.Mix{Inactive: 0.5, Genuine: 0.5}},
	})
	report, err := audit.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if report.HasInactiveClass || report.InactivePct != 0 {
		t.Fatalf("twitteraudit must not report inactive: %+v", report)
	}
	if report.FakePct+report.GenuinePct < 99.9 {
		t.Fatalf("percentages must cover everything: %+v", report)
	}
	// Roughly half the base is dormant; a majority of those score low, so
	// the fake percentage must land well above zero but below the dormant
	// share (the conflation the paper notes).
	if report.FakePct < 15 || report.FakePct > 55 {
		t.Fatalf("fake = %.1f%%, want the dormant-driven band", report.FakePct)
	}
}

func TestAuditWindowIsNewest5000(t *testing.T) {
	audit, _ := fixture(t, 20000, population.Layout{
		{Width: 5000, Mix: population.Mix{Genuine: 1}},
		{Width: 0, Mix: population.Mix{Inactive: 1}},
	})
	report, err := audit.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if report.SampleSize != SampleSize {
		t.Fatalf("sample = %d, want %d", report.SampleSize, SampleSize)
	}
	// Window = newest 5000 = all genuine: fake ≈ 0 despite 15,000 dormant
	// accounts right beyond the window.
	if report.FakePct > 10 {
		t.Fatalf("fake = %.1f%%, want ≈0 (dormant base is outside the window)", report.FakePct)
	}
}

func TestChartsPopulated(t *testing.T) {
	audit, _ := fixture(t, 4000, population.Layout{
		{Width: 0, Mix: population.Mix{Inactive: 0.6, Fake: 0.2, Genuine: 0.2}},
	})
	report, err := audit.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	charts := audit.LastCharts()
	totalQ := 0
	for _, n := range charts.QualityScores {
		totalQ += n
	}
	totalP := 0
	for _, n := range charts.RealPoints {
		totalP += n
	}
	if totalQ != report.SampleSize || totalP != report.SampleSize {
		t.Fatalf("chart totals %d/%d, want %d", totalQ, totalP, report.SampleSize)
	}
	if charts.TargetVerdict != "fake" {
		t.Fatalf("verdict = %q, want fake for a 80%%-junk base", charts.TargetVerdict)
	}
}

func TestAuditResponseTimeShape(t *testing.T) {
	audit, clock := fixture(t, 30000, nil)
	start := clock.Now()
	if _, err := audit.Audit("subject"); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start)
	// 1 show + 1 ids + 50 lookups = 52 calls at 0.9s ≈ 47s — Table II's
	// Twitteraudit column is 40-55s.
	if elapsed < 35*time.Second || elapsed > 60*time.Second {
		t.Fatalf("elapsed = %v, want ≈47s", elapsed)
	}
}

// TestScoreAllocatesNothing: scanning a sample and scoring each account
// allocates nothing.
func TestScoreAllocatesNothing(t *testing.T) {
	mix := population.Layout{{Width: 0, Mix: population.Mix{Inactive: 0.3, Fake: 0.3, Genuine: 0.4}}}
	a, clock := fixture(t, 3000, mix)
	target, err := a.client.UserByScreenName("subject")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := twitterapi.FollowerIDsUpTo(a.client, target.ID, SampleSize)
	if err != nil {
		t.Fatal(err)
	}
	now := clock.Now()
	fake, real := 0, 0
	visit := func(v twitter.ProfileView) {
		if IsFake(v, now) {
			fake++
		} else {
			real++
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := a.client.ScanProfiles(ids, visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning and scoring %d accounts allocates %.0f times, want 0", len(ids), allocs)
	}
	if fake == 0 || real == 0 {
		t.Fatalf("%d fake, %d real: a branch was never taken", fake, real)
	}
}
