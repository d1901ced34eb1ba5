package rules

import (
	"testing"

	"fakeproject/internal/features"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// genuineCtx models an engaged, complete account.
func genuineCtx() *features.Context {
	return &features.Context{
		Profile: twitter.Profile{
			User: twitter.User{
				ID: 1, ScreenName: "real", Name: "Real Person",
				CreatedAt: simclock.Epoch.AddDate(-3, 0, 0),
				Bio:       "hi", Location: "Pisa", URL: "http://example.com",
			},
			FollowersCount: 800,
			FriendsCount:   300,
			StatusesCount:  4500,
			LastTweetAt:    simclock.Epoch.AddDate(0, 0, -2),
			Behavior:       twitter.Behavior{RetweetRatio: 0.2, LinkRatio: 0.25},
		}.View(),
		Now: simclock.Epoch,
	}
}

// boughtFakeCtx models a classic purchased follower: young, egg avatar,
// empty profile, follows thousands, never tweets.
func boughtFakeCtx() *features.Context {
	return &features.Context{
		Profile: twitter.Profile{
			User: twitter.User{
				ID: 2, ScreenName: "xkfj19d2", Name: "xkfj19d2",
				CreatedAt:           simclock.Epoch.AddDate(0, -4, 0),
				DefaultProfileImage: true,
			},
			FollowersCount: 3,
			FriendsCount:   2100,
			StatusesCount:  0,
		}.View(),
		Now: simclock.Epoch,
	}
}

// spamBotCtx models an active spam bot: tweets constantly, all links and
// duplicated spam phrases.
func spamBotCtx() *features.Context {
	return &features.Context{
		Profile: twitter.Profile{
			User: twitter.User{
				ID: 3, ScreenName: "dealz4u", Name: "dealz",
				CreatedAt: simclock.Epoch.AddDate(0, -8, 0),
			},
			FollowersCount: 25,
			FriendsCount:   1900,
			StatusesCount:  900,
			LastTweetAt:    simclock.Epoch.AddDate(0, 0, -1),
			Behavior: twitter.Behavior{
				RetweetRatio: 0.3, LinkRatio: 0.95,
				SpamRatio: 0.6, DuplicateRatio: 0.5,
			},
		}.View(),
		Now: simclock.Epoch,
	}
}

func TestCamisaniCalzolari(t *testing.T) {
	cc := CamisaniCalzolari()
	if cc.Fake(genuineCtx()) {
		t.Fatal("CC ruled the genuine account fake")
	}
	if !cc.Fake(boughtFakeCtx()) {
		t.Fatal("CC missed the bought fake")
	}
}

func TestStateOfSearch(t *testing.T) {
	sos := StateOfSearch()
	if sos.Fake(genuineCtx()) {
		t.Fatal("SoS ruled the genuine account fake")
	}
	if !sos.Fake(boughtFakeCtx()) {
		t.Fatal("SoS missed the bought fake")
	}
}

func TestSocialbakersOnArchetypes(t *testing.T) {
	sb := Socialbakers()
	if sb.Fake(genuineCtx()) {
		t.Fatal("SB ruled the genuine account fake")
	}
	if !sb.Fake(boughtFakeCtx()) {
		t.Fatal("SB missed the bought fake")
	}
	if !sb.Fake(spamBotCtx()) {
		t.Fatal("SB missed the spam bot")
	}
}

func TestSocialbakersIndividualCriteria(t *testing.T) {
	sb := Socialbakers()
	byName := make(map[string]Rule, len(sb.Rules))
	for _, r := range sb.Rules {
		byName[r.Name] = r
	}

	// 50:1 ratio criterion.
	ctx := genuineCtx()
	ctx.Profile.FriendsCount = 50 * ctx.Profile.FollowersCount
	if !byName["ff_ratio_50_to_1"].Fire(ctx) {
		t.Fatal("50:1 criterion should fire at exactly 50:1")
	}
	ctx = genuineCtx()
	if byName["ff_ratio_50_to_1"].Fire(ctx) {
		t.Fatal("50:1 criterion fired on genuine ratios")
	}

	// Zero-follower accounts must not divide away the ratio criterion.
	ctx = genuineCtx()
	ctx.Profile.FollowersCount = 0
	ctx.Profile.FriendsCount = 75
	if !byName["ff_ratio_50_to_1"].Fire(ctx) {
		t.Fatal("50:1 criterion should treat 0 followers as 1")
	}

	// Never tweeted.
	ctx = genuineCtx()
	ctx.Profile.StatusesCount = 0
	ctx.Profile.LastTweetAt = simclock.Epoch.AddDate(-1, 0, 0).Unix()
	if !byName["never_tweeted"].Fire(boughtFakeCtx()) {
		t.Fatal("never_tweeted should fire for 0 statuses")
	}

	// Old account with default image.
	if !byName["old_default_image"].Fire(boughtFakeCtx()) {
		t.Fatal("old_default_image should fire (4 months old, egg)")
	}
	young := boughtFakeCtx()
	young.Profile.CreatedAt = simclock.Epoch.AddDate(0, -1, 0).Unix()
	if byName["old_default_image"].Fire(young) {
		t.Fatal("old_default_image must not fire under two months")
	}

	// Empty profile following >100.
	if !byName["empty_profile_following_100"].Fire(boughtFakeCtx()) {
		t.Fatal("empty profile criterion should fire")
	}

	// Spam phrases criterion needs statuses.
	if byName["spam_phrases_30pct"].Fire(boughtFakeCtx()) {
		t.Fatal("spam criterion must not fire for accounts with no tweets")
	}
	if !byName["spam_phrases_30pct"].Fire(spamBotCtx()) {
		t.Fatal("spam criterion should fire for the spam bot")
	}
}

func TestScoreAndMaxScore(t *testing.T) {
	sb := Socialbakers()
	if sb.MaxScore() != 13 {
		t.Fatalf("SB MaxScore = %v, want 13", sb.MaxScore())
	}
	if got := sb.Score(genuineCtx()); got != 0 {
		t.Fatalf("SB score of genuine = %v, want 0", got)
	}
	if got := sb.Score(boughtFakeCtx()); got < 2 {
		t.Fatalf("SB score of fake = %v, want >= threshold", got)
	}
}

func TestFiringNames(t *testing.T) {
	sb := Socialbakers()
	names := sb.Firing(boughtFakeCtx())
	if len(names) == 0 {
		t.Fatal("no firing rules for the bought fake")
	}
	want := map[string]bool{
		"ff_ratio_50_to_1": true, "never_tweeted": true,
		"old_default_image": true, "empty_profile_following_100": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected firing rule %q", n)
		}
	}
}

func TestHumanPolarityThreshold(t *testing.T) {
	cc := CamisaniCalzolari()
	// Human-polarity sets flag *low* scores as fake.
	if cc.Score(genuineCtx()) < cc.Threshold {
		t.Fatal("genuine score should be at or above threshold")
	}
	if cc.Score(boughtFakeCtx()) >= cc.Threshold {
		t.Fatal("fake score should be below threshold")
	}
}

func TestAllSets(t *testing.T) {
	sets := AllSets()
	if len(sets) != 3 {
		t.Fatalf("AllSets = %d, want 3", len(sets))
	}
	seen := map[string]bool{}
	for _, s := range sets {
		if seen[s.Name] {
			t.Fatalf("duplicate set %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Rules) == 0 || s.Threshold <= 0 {
			t.Fatalf("degenerate set %+v", s.Name)
		}
	}
}

func TestRuleSetsDisagreeOnEdgeCases(t *testing.T) {
	// Section III: "algorithms based on classification rules do not succeed
	// in detecting the fakes in our reference dataset" — rule sets are
	// fooled by fakes that dodge individual criteria. A fake with a real
	// photo, a bio, and a handful of tweets evades CC-style completeness
	// scoring while still being obviously purchased (ratio-wise).
	sneaky := &features.Context{
		Profile: twitter.Profile{
			User: twitter.User{
				ID: 9, ScreenName: "sneaky", Name: "Jane",
				CreatedAt: simclock.Epoch.AddDate(0, -10, 0),
				Bio:       "love life", Location: "NYC", URL: "http://x.example",
			},
			FollowersCount: 45,
			FriendsCount:   1800,
			StatusesCount:  60,
			LastTweetAt:    simclock.Epoch.AddDate(0, 0, -10),
			Behavior:       twitter.Behavior{RetweetRatio: 0.4, LinkRatio: 0.4},
		}.View(),
		Now: simclock.Epoch,
	}
	cc := CamisaniCalzolari()
	sos := StateOfSearch()
	if cc.Fake(sneaky) {
		t.Fatal("expected CC to be evaded by the sneaky fake (the paper's point)")
	}
	if sos.Fake(sneaky) {
		t.Fatal("expected SoS to be evaded too")
	}
}
