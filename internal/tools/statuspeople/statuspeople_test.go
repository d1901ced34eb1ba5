package statuspeople

import (
	"testing"
	"time"

	"fakeproject/internal/population"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitterapi"
)

// fixture builds a target whose newest 3,000 followers are junk-heavy and
// whose older base is genuine — the purchased-followers shape.
func fixture(t *testing.T) (*Fakers, *simclock.Virtual, string) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 3)
	gen := population.NewGenerator(store, 3)
	_, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "buyer",
		Followers:  10000,
		Layout: population.Layout{
			{Width: 3000, Mix: population.Mix{Inactive: 0.2, Fake: 0.7, Genuine: 0.1}},
			{Width: 0, Mix: population.Mix{Genuine: 0.9, Inactive: 0.1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client := twitterapi.NewDirectClient(twitterapi.NewService(store), clock,
		twitterapi.ClientConfig{PerCallLatency: 1700 * time.Millisecond, Tokens: 50})
	return New(client, clock, Current()), clock, "buyer"
}

func TestConfigs(t *testing.T) {
	if c := Legacy(); c.Window != 100000 || c.Sample != 1000 {
		t.Fatalf("Legacy = %+v", c)
	}
	if c := Current(); c.Window != 35000 || c.Sample != 700 {
		t.Fatalf("Current = %+v", c)
	}
	if c := DeepDive(); c.Window != 1250000 || c.Sample != 33000 {
		t.Fatalf("DeepDive = %+v", c)
	}
}

func TestZeroConfigDefaultsToCurrent(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	f := New(nil, clock, Config{})
	if f.cfg.Window != 35000 || f.cfg.Sample != 700 {
		t.Fatalf("zero config = %+v, want Current", f.cfg)
	}
}

func TestClassifyArchetypes(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	f := New(nil, clock, Current())
	now := clock.Now()

	bought := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(0, -4, 0), DefaultProfileImage: true},
		FollowersCount: 2, FriendsCount: 1800, StatusesCount: 0,
	}
	if got := f.Classify(bought.View(), now); got != VerdictFake {
		t.Fatalf("bought fake = %v, want fake (spam criteria win over dormancy)", got)
	}

	dormant := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-3, 0, 0), Bio: "hello"},
		FollowersCount: 200, FriendsCount: 150, StatusesCount: 500,
		LastTweetAt: now.AddDate(-1, 0, 0),
	}
	if got := f.Classify(dormant.View(), now); got != VerdictInactive {
		t.Fatalf("dormant genuine = %v, want inactive", got)
	}

	active := twitter.Profile{
		User:           twitter.User{CreatedAt: now.AddDate(-2, 0, 0), Bio: "hi"},
		FollowersCount: 900, FriendsCount: 400, StatusesCount: 3000,
		LastTweetAt: now.AddDate(0, 0, -1),
	}
	if got := f.Classify(active.View(), now); got != VerdictGood {
		t.Fatalf("active genuine = %v, want good", got)
	}
}

func TestAuditSamplesOnlyNewestWindow(t *testing.T) {
	fakers, _, name := fixture(t)
	report, err := fakers.Audit(name)
	if err != nil {
		t.Fatal(err)
	}
	if report.SampleSize != 700 {
		t.Fatalf("sample = %d, want 700", report.SampleSize)
	}
	if report.Window != 35000 {
		t.Fatalf("window = %d", report.Window)
	}
	// The newest 3,000 of 10,000 are ~90% junk but the whole base is ~66%
	// genuine; since the window (35K) covers the whole list here, Fakers
	// sees the true blend — on this small account it is roughly unbiased.
	junk := report.FakePct + report.InactivePct
	if junk < 20 || junk > 50 {
		t.Fatalf("junk = %.1f%%, want the whole-list blend (≈33%%)", junk)
	}
	if !report.HasInactiveClass {
		t.Fatal("Fakers reports inactive accounts")
	}
}

func TestAuditResponseTimeShape(t *testing.T) {
	fakers, clock, name := fixture(t)
	start := clock.Now()
	if _, err := fakers.Audit(name); err != nil {
		t.Fatal(err)
	}
	elapsed := clock.Now().Sub(start)
	// 1 users/show + 2 ids pages + 7 lookups = 10 calls at 1.7s ≈ 17s;
	// Table II's StatusPeople column is 22-32s for bigger windows.
	if elapsed < 10*time.Second || elapsed > 40*time.Second {
		t.Fatalf("elapsed = %v, want tens of seconds", elapsed)
	}
}

func TestAuditUnknownAccount(t *testing.T) {
	fakers, _, _ := fixture(t)
	if _, err := fakers.Audit("ghost"); err == nil {
		t.Fatal("unknown account should fail")
	}
}

func TestDeepDiveSeesMoreThanCurrent(t *testing.T) {
	// On a target whose junk sits beyond the newest 35K, the Deep Dive
	// configuration must report more junk than the public one.
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 9)
	gen := population.NewGenerator(store, 9)
	if _, err := gen.BuildTarget(population.TargetSpec{
		ScreenName: "deep",
		Followers:  80000,
		Layout: population.Layout{
			{Width: 35000, Mix: population.Mix{Genuine: 1}},
			{Width: 0, Mix: population.Mix{Inactive: 0.9, Fake: 0.1}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	svc := twitterapi.NewService(store)
	mk := func(cfg Config) *Fakers {
		return New(twitterapi.NewDirectClient(svc, clock, twitterapi.ClientConfig{Tokens: 64}), clock, cfg)
	}
	pub, err := mk(Current()).Audit("deep")
	if err != nil {
		t.Fatal(err)
	}
	deep, err := mk(DeepDive()).Audit("deep")
	if err != nil {
		t.Fatal(err)
	}
	pubJunk := pub.FakePct + pub.InactivePct
	deepJunk := deep.FakePct + deep.InactivePct
	if deepJunk <= pubJunk+20 {
		t.Fatalf("deep dive junk %.1f%% should far exceed window junk %.1f%%", deepJunk, pubJunk)
	}
}

// TestClassifyAllocatesNothing: scanning a sample and applying the spam
// criteria to each account allocates nothing.
func TestClassifyAllocatesNothing(t *testing.T) {
	f, clock, name := fixture(t)
	target, err := f.client.UserByScreenName(name)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := twitterapi.FollowerIDsUpTo(f.client, target.ID, 5000)
	if err != nil {
		t.Fatal(err)
	}
	now := clock.Now()
	var seen [VerdictFake + 1]int
	visit := func(v twitter.ProfileView) { seen[f.Classify(v, now)]++ }
	allocs := testing.AllocsPerRun(10, func() {
		if err := f.client.ScanProfiles(ids, visit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanning and classifying %d accounts allocates %.0f times, want 0", len(ids), allocs)
	}
	if seen[VerdictGood] == 0 || seen[VerdictInactive] == 0 || seen[VerdictFake] == 0 {
		t.Fatalf("verdicts %v: a branch was never taken", seen)
	}
}
