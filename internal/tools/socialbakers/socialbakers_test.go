package socialbakers

import (
	"errors"
	"testing"
	"time"

	"fakeproject/internal/features"
	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

func fixture(t *testing.T, followers int, layout population.Layout) (*Checker, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 5)
	gen := population.NewGenerator(store, 5)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "subject",
		Followers:  followers,
		Layout:     layout,
	}); err != nil {
		t.Fatal(err)
	}
	client := twitterapi.NewDirectClient(twitterapi.NewService(store), clock,
		twitterapi.ClientConfig{PerCallLatency: 430 * time.Millisecond, Tokens: 50})
	return New(client, clock), clock
}

func TestClassifyVerdictPrecedence(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	c := New(nil, clock)
	now := clock.Now()
	classify := func(p twitter.Profile) Verdict {
		return c.Classify(&features.Context{Profile: p.View(), Now: now})
	}

	// An active spam bot: suspicious, not inactive.
	spamBot := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(0, -8, 0)},
		FollowersCount: 20, FriendsCount: 2000, StatusesCount: 400,
		LastTweetAt: now.AddDate(0, 0, -2),
		Behavior:    twitter.Behavior{SpamRatio: 0.6, LinkRatio: 0.95, DuplicateRatio: 0.5},
	}
	if got := classify(spamBot); got != VerdictSuspicious {
		t.Fatalf("spam bot = %v, want suspicious", got)
	}

	// A dormant egg: matches fake criteria AND inactivity rules; the
	// published flow tests suspicious accounts against the inactivity
	// rules, so inactive wins.
	egg := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-1, 0, 0), DefaultProfileImage: true},
		FollowersCount: 1, FriendsCount: 900, StatusesCount: 0,
	}
	if got := classify(egg); got != VerdictInactive {
		t.Fatalf("dormant egg = %v, want inactive", got)
	}

	// "the account has posted less than 3 tweets" → inactive even if the
	// last tweet is recent.
	sparse := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-1, 0, 0), Bio: "x", Location: "y"},
		FollowersCount: 50, FriendsCount: 60, StatusesCount: 2,
		LastTweetAt: now.AddDate(0, 0, -1),
	}
	if got := classify(sparse); got != VerdictInactive {
		t.Fatalf("two-tweet account = %v, want inactive", got)
	}

	genuine := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-2, 0, 0), Bio: "hi", Location: "Pisa"},
		FollowersCount: 500, FriendsCount: 300, StatusesCount: 2500,
		LastTweetAt: now.AddDate(0, 0, -3),
		Behavior:    twitter.Behavior{RetweetRatio: 0.2, LinkRatio: 0.3},
	}
	if got := classify(genuine); got != VerdictGenuine {
		t.Fatalf("genuine = %v, want genuine", got)
	}
}

func TestAuditWindowIs2000(t *testing.T) {
	checker, _ := fixture(t, 10000, population.Layout{
		{Width: 2000, Mix: population.Mix{Fake: 0.5, Genuine: 0.5}},
		{Width: 0, Mix: population.Mix{Inactive: 1}},
	})
	report, err := checker.Audit("subject")
	if err != nil {
		t.Fatal(err)
	}
	if report.SampleSize != Window {
		t.Fatalf("sample = %d, want %d (the newest window, assessed in full)", report.SampleSize, Window)
	}
	// The tool must see ONLY the newest 2000 (half fake, half genuine) and
	// none of the 8000 dormant accounts beyond its window.
	if report.InactivePct > 8 {
		t.Fatalf("inactive = %.1f%%, want ≈0 (dormant base is outside the window)", report.InactivePct)
	}
	if report.FakePct < 35 || report.FakePct > 60 {
		t.Fatalf("fake = %.1f%%, want ≈50", report.FakePct)
	}
}

func TestAuditResponseTimeShape(t *testing.T) {
	checker, clock := fixture(t, 30000, nil)
	start := clock.Now()
	if _, err := checker.Audit("subject"); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start)
	// 1 show + 1 ids page + 20 lookups = 22 calls at 0.43s ≈ 9.5s —
	// Table II's Socialbakers column is 7-13s.
	if elapsed < 5*time.Second || elapsed > 16*time.Second {
		t.Fatalf("elapsed = %v, want ≈10s", elapsed)
	}
}

func TestDailyLimit(t *testing.T) {
	checker, clock := fixture(t, 100, nil)
	checker.EnforceDailyLimit = true
	for i := 0; i < DailyLimit; i++ {
		if _, err := checker.Audit("subject"); err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
	}
	if _, err := checker.Audit("subject"); !errors.Is(err, ErrDailyLimit) {
		t.Fatalf("11th audit err = %v, want ErrDailyLimit", err)
	}
	// A day later the budget resets.
	clock.Advance(24 * time.Hour)
	if _, err := checker.Audit("subject"); err != nil {
		t.Fatalf("audit after reset: %v", err)
	}
}

func TestIsInactiveRules(t *testing.T) {
	now := simclock.Epoch
	cases := []struct {
		name string
		p    twitter.Profile
		want bool
	}{
		{"never tweeted", twitter.Profile{}, true},
		{"two tweets", twitter.Profile{StatusesCount: 2, LastTweetAt: now.AddDate(0, 0, -1)}, true},
		{"old last tweet", twitter.Profile{StatusesCount: 100, LastTweetAt: now.AddDate(0, 0, -91)}, true},
		{"active", twitter.Profile{StatusesCount: 100, LastTweetAt: now.AddDate(0, 0, -5)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsInactive(tc.p.View(), now); got != tc.want {
				t.Fatalf("IsInactive = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestClassifyAllocatesNothing: scanning the window and applying the eight
// criteria to each account allocates nothing (the rules reach the context
// through function values, so it must be the caller's, built once).
func TestClassifyAllocatesNothing(t *testing.T) {
	mix := population.Layout{{Width: 0, Mix: population.Mix{Inactive: 0.3, Fake: 0.3, Genuine: 0.4}}}
	c, clock := fixture(t, 3000, mix)
	target, err := c.client.UserByScreenName("subject")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := twitterapi.FollowerIDsUpTo(c.client, target.ID, Window)
	if err != nil {
		t.Fatal(err)
	}
	ctx := features.Context{Now: clock.Now()}
	var seen [VerdictSuspicious + 1]int
	visit := func(v twitter.ProfileView) {
		ctx.Profile = v
		seen[c.Classify(&ctx)]++
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.client.ScanProfiles(ids, visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning and classifying %d accounts allocates %.0f times, want 0", len(ids), allocs)
	}
	if seen[VerdictGenuine] == 0 || seen[VerdictInactive] == 0 || seen[VerdictSuspicious] == 0 {
		t.Fatalf("verdicts %v: a branch was never taken", seen)
	}
}
