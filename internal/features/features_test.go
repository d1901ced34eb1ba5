package features

import (
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func activeProfile() twitter.Profile {
	return twitter.Profile{
		User: twitter.User{
			ID:         1,
			ScreenName: "genuine",
			CreatedAt:  simclock.Epoch.AddDate(-2, 0, 0),
			Bio:        "hello",
			Location:   "Pisa",
		},
		FollowersCount: 500,
		FriendsCount:   250,
		StatusesCount:  730,
		LastTweetAt:    simclock.Epoch.AddDate(0, 0, -3),
		Behavior:       twitter.Behavior{RetweetRatio: 0.2, LinkRatio: 0.3, SpamRatio: 0, DuplicateRatio: 0.05},
	}
}

func ctxOf(p twitter.Profile) *Context {
	return &Context{Profile: p.View(), Now: simclock.Epoch}
}

func TestAgeDays(t *testing.T) {
	ctx := ctxOf(activeProfile())
	if got := AgeDays(ctx); got < 729 || got > 732 {
		t.Fatalf("AgeDays = %v, want ≈730.5", got)
	}
	if got := AgeDays(ctxOf(twitter.Profile{})); got != 0 {
		t.Fatalf("zero CreatedAt AgeDays = %v", got)
	}
}

func TestLastTweetAgeDays(t *testing.T) {
	ctx := ctxOf(activeProfile())
	if got := LastTweetAgeDays(ctx); got != 3 {
		t.Fatalf("LastTweetAgeDays = %v, want 3", got)
	}
	p := activeProfile()
	p.LastTweetAt = time.Time{}
	if got := LastTweetAgeDays(ctxOf(p)); got != 3650 {
		t.Fatalf("never-tweeted sentinel = %v, want 3650", got)
	}
	p.LastTweetAt = simclock.Epoch.Add(time.Hour) // clock skew
	if got := LastTweetAgeDays(ctxOf(p)); got != 0 {
		t.Fatalf("future last tweet age = %v, want clamp 0", got)
	}
}

func TestTweetsPerDay(t *testing.T) {
	ctx := ctxOf(activeProfile())
	got := TweetsPerDay(ctx)
	if got < 0.99 || got > 1.01 {
		t.Fatalf("TweetsPerDay = %v, want ≈1", got)
	}
}

func TestTimelineRatiosFromCrawledTimeline(t *testing.T) {
	tl := []twitter.Tweet{
		{Text: "normal tweet"},
		{Text: "make money fast http://x", HasLink: true},
		{Text: "RT @x: hi", IsRetweet: true},
		{Text: "make money fast http://x", HasLink: true},
	}
	ctx := &Context{Profile: activeProfile().View(), Timeline: tl, TimelineCrawled: true, Now: simclock.Epoch}
	if got := RetweetRatio(ctx); got != 0.25 {
		t.Fatalf("RetweetRatio = %v, want 0.25", got)
	}
	if got := LinkRatio(ctx); got != 0.5 {
		t.Fatalf("LinkRatio = %v, want 0.5", got)
	}
	if got := SpamPhraseRatio(ctx); got != 0.5 {
		t.Fatalf("SpamPhraseRatio = %v, want 0.5", got)
	}
	if got := DuplicateRatio(ctx); got != 0.5 {
		t.Fatalf("DuplicateRatio = %v, want 0.5", got)
	}
	if got := MaxDuplicateRun(ctx); got != 2 {
		t.Fatalf("MaxDuplicateRun = %v, want 2", got)
	}
}

func TestTimelineRatiosFallBackToBehavior(t *testing.T) {
	ctx := ctxOf(activeProfile())
	if got := RetweetRatio(ctx); got != 0.2 {
		t.Fatalf("fallback RetweetRatio = %v, want behaviour 0.2", got)
	}
	if got := LinkRatio(ctx); got != 0.3 {
		t.Fatalf("fallback LinkRatio = %v, want 0.3", got)
	}
	if got := DuplicateRatio(ctx); got != 0.05 {
		t.Fatalf("fallback DuplicateRatio = %v, want 0.05", got)
	}
}

func TestBidirectionalLinkRatio(t *testing.T) {
	ctx := &Context{
		Friends:   []twitter.UserID{1, 2, 3, 4},
		Followers: []twitter.UserID{2, 4, 9},
		Now:       simclock.Epoch,
	}
	if got := BidirectionalLinkRatio(ctx); got != 0.5 {
		t.Fatalf("BidirectionalLinkRatio = %v, want 0.5", got)
	}
	if got := BidirectionalLinkRatio(&Context{}); got != 0 {
		t.Fatalf("empty friends ratio = %v, want 0", got)
	}
}

func TestProfileSetAllCostA(t *testing.T) {
	s := ProfileSet()
	if s.MaxCost() != CostA {
		t.Fatalf("ProfileSet MaxCost = %v, want A", s.MaxCost())
	}
	vec := s.Extract(ctxOf(activeProfile()), nil)
	if len(vec) != len(s.Features) {
		t.Fatalf("vector length %d != %d features", len(vec), len(s.Features))
	}
}

func TestLookupSetAllCostA(t *testing.T) {
	s := LookupSet()
	if s.MaxCost() != CostA {
		t.Fatalf("LookupSet MaxCost = %v, want A (answerable from lookups)", s.MaxCost())
	}
}

func TestFullSetCosts(t *testing.T) {
	s := FullSet()
	if s.MaxCost() != CostC {
		t.Fatalf("FullSet MaxCost = %v, want C", s.MaxCost())
	}
	a := s.Filter(CostA)
	for _, f := range a.Features {
		if f.Cost != CostA {
			t.Fatalf("Filter(CostA) leaked %s (%v)", f.Name, f.Cost)
		}
	}
	b := s.Filter(CostB)
	if len(b.Features) <= len(a.Features) {
		t.Fatal("CostB filter should keep more features than CostA")
	}
}

func TestCrawlCostOrdering(t *testing.T) {
	profile := ProfileSet().CrawlCost()
	stringhini := StringhiniSet().CrawlCost()
	yang := YangSet().CrawlCost()
	if !(profile < stringhini && stringhini < yang) {
		t.Fatalf("cost ordering violated: profile=%v stringhini=%v yang=%v",
			profile, stringhini, yang)
	}
}

func TestSetNamesAlignWithVector(t *testing.T) {
	for _, s := range []Set{ProfileSet(), LookupSet(), FullSet(), StringhiniSet(), YangSet()} {
		names := s.Names()
		if len(names) != len(s.Features) {
			t.Fatalf("%s: names/features mismatch", s.Name)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" {
				t.Fatalf("%s: empty feature name", s.Name)
			}
			if seen[n] {
				t.Fatalf("%s: duplicate feature %q", s.Name, n)
			}
			seen[n] = true
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	s := FullSet()
	ctx := ctxOf(activeProfile())
	a := s.Extract(ctx, nil)
	b := s.Extract(ctx, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %s not deterministic", s.Features[i].Name)
		}
	}
	// A row that is long enough is reused, not reallocated.
	if c := s.Extract(ctx, b); &c[0] != &b[0] || len(c) != len(a) {
		t.Fatalf("Extract did not fill the caller's row in place")
	}
}

func TestFakeVsGenuineSeparation(t *testing.T) {
	// A canonical bought-follower profile must differ from a genuine one on
	// the signals every tool in the paper leans on.
	fake := twitter.Profile{
		User: twitter.User{
			ID:                  2,
			CreatedAt:           simclock.Epoch.AddDate(0, -3, 0),
			DefaultProfileImage: true,
		},
		FollowersCount: 2,
		FriendsCount:   1500,
		StatusesCount:  0,
		Behavior:       twitter.Behavior{},
	}
	fctx := ctxOf(fake)
	gctx := ctxOf(activeProfile())
	if FollowerFriend := fake.View().FollowerFriendRatio(); FollowerFriend >= 0.1 {
		t.Fatalf("fake ff ratio = %v, want tiny", FollowerFriend)
	}
	if LastTweetAgeDays(fctx) <= LastTweetAgeDays(gctx) {
		t.Fatal("fake should look more dormant than genuine")
	}
	if AgeDays(fctx) >= AgeDays(gctx) {
		t.Fatal("fake should be younger than genuine")
	}
}
