package population

import (
	"math"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

func newGen(t *testing.T) (*Generator, *twitter.Store, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 7)
	return NewGenerator(store, 7), store, clock
}

func TestMixNormalised(t *testing.T) {
	m := Mix{Inactive: 2, Fake: 1, Genuine: 1}.Normalised()
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Fatalf("sum = %v", m.Sum())
	}
	if math.Abs(m.Inactive-0.5) > 1e-9 {
		t.Fatalf("inactive = %v", m.Inactive)
	}
	// Negative components are floored, not propagated.
	m = Mix{Inactive: -0.5, Fake: 0.5, Genuine: 0.5}.Normalised()
	if m.Inactive < 0 || math.Abs(m.Sum()-1) > 1e-12 {
		t.Fatalf("negative clamp failed: %+v", m)
	}
}

func TestFromPercentages(t *testing.T) {
	m := FromPercentages(97, 1.2, 1.8)
	if math.Abs(m.Inactive-0.97) > 0.01 {
		t.Fatalf("inactive = %v", m.Inactive)
	}
	if math.Abs(m.Sum()-1) > 1e-12 {
		t.Fatalf("sum = %v", m.Sum())
	}
}

func TestLayoutMixAt(t *testing.T) {
	l := Layout{
		{Width: 100, Mix: Mix{Genuine: 1}},
		{Width: 200, Mix: Mix{Fake: 1}},
		{Width: 0, Mix: Mix{Inactive: 1}},
	}
	if m := l.mixAt(0); m.Genuine != 1 {
		t.Fatalf("newest should be genuine: %+v", m)
	}
	if m := l.mixAt(99); m.Genuine != 1 {
		t.Fatalf("edge of band 1: %+v", m)
	}
	if m := l.mixAt(100); m.Fake != 1 {
		t.Fatalf("start of band 2: %+v", m)
	}
	if m := l.mixAt(299); m.Fake != 1 {
		t.Fatalf("edge of band 2: %+v", m)
	}
	if m := l.mixAt(300); m.Inactive != 1 {
		t.Fatalf("tail band: %+v", m)
	}
	if m := l.mixAt(1000000); m.Inactive != 1 {
		t.Fatalf("deep tail: %+v", m)
	}
}

func TestLayoutTruth(t *testing.T) {
	l := Layout{
		{Width: 500, Mix: Mix{Genuine: 1}},
		{Width: 0, Mix: Mix{Inactive: 1}},
	}
	truth := l.Truth(1000)
	if math.Abs(truth.Genuine-0.5) > 1e-9 || math.Abs(truth.Inactive-0.5) > 1e-9 {
		t.Fatalf("truth = %+v", truth)
	}
}

func TestBuildTargetGroundTruthMatchesLayout(t *testing.T) {
	g, store, _ := newGen(t)
	layout := Layout{
		{Width: 1000, Mix: Mix{Inactive: 0.17, Fake: 0.35, Genuine: 0.48}},
		{Width: 0, Mix: Mix{Inactive: 0.95, Fake: 0.01, Genuine: 0.04}},
	}
	target, err := g.BuildTarget(TargetSpec{
		ScreenName: "pc_chiambretti_like",
		Followers:  8000,
		Layout:     layout,
		Statuses:   13,
	})
	if err != nil {
		t.Fatal(err)
	}
	chrono, err := store.FollowersChronological(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(chrono) != 8000 {
		t.Fatalf("followers = %d", len(chrono))
	}

	// The newest 1000 (end of chrono) must follow the first band's mix.
	newest := chrono[len(chrono)-1000:]
	counts := store.ClassCounts(newest)
	if frac := float64(counts[twitter.ClassInactive]) / 1000; math.Abs(frac-0.17) > 0.05 {
		t.Fatalf("newest band inactive = %.3f, want ≈0.17", frac)
	}
	if frac := float64(counts[twitter.ClassFake]) / 1000; math.Abs(frac-0.35) > 0.05 {
		t.Fatalf("newest band fake = %.3f, want ≈0.35", frac)
	}
	// The old body must be dormant.
	body := chrono[:7000]
	bodyCounts := store.ClassCounts(body)
	if frac := float64(bodyCounts[twitter.ClassInactive]) / 7000; math.Abs(frac-0.95) > 0.03 {
		t.Fatalf("body inactive = %.3f, want ≈0.95", frac)
	}
}

func TestArchetypesHonourOperationalDefinitions(t *testing.T) {
	g, store, clock := newGen(t)
	target, err := g.BuildTarget(TargetSpec{
		ScreenName: "defs",
		Followers:  3000,
		Layout:     Layout{{Width: 0, Mix: Mix{Inactive: 0.34, Fake: 0.33, Genuine: 0.33}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	chrono, _ := store.FollowersChronological(target)
	now := clock.Now()
	for _, id := range chrono {
		class, _ := store.TrueClass(id)
		p, err := store.Profile(id)
		if err != nil {
			t.Fatal(err)
		}
		dormant := p.View().HasNeverTweeted() || now.Sub(p.LastTweetAt) > InactivityThreshold
		switch class {
		case twitter.ClassInactive:
			if !dormant {
				t.Fatalf("inactive account %d is not dormant: last tweet %v", id, p.LastTweetAt)
			}
		case twitter.ClassGenuine, twitter.ClassFake:
			if dormant {
				t.Fatalf("%v account %d is dormant: statuses=%d last=%v",
					class, id, p.StatusesCount, p.LastTweetAt)
			}
		}
		if !p.CreatedAt.Before(now) {
			t.Fatalf("account %d created in the future", id)
		}
		if !p.LastTweetAt.IsZero() && p.LastTweetAt.Before(p.CreatedAt) {
			t.Fatalf("account %d tweeted before creation", id)
		}
	}
}

func TestFakeArchetypeLooksBought(t *testing.T) {
	g, store, _ := newGen(t)
	target, _ := g.BuildTarget(TargetSpec{
		ScreenName: "fakes",
		Followers:  1500,
		Layout:     Layout{{Width: 0, Mix: Mix{Fake: 1}}},
	})
	chrono, _ := store.FollowersChronological(target)
	lowRatio := 0
	spammy := 0
	for _, id := range chrono {
		p, _ := store.Profile(id)
		if p.View().FollowerFriendRatio() < 0.2 {
			lowRatio++
		}
		if p.Behavior.SpamRatio > 0.3 || p.Behavior.DuplicateRatio > 0.25 {
			spammy++
		}
	}
	if frac := float64(lowRatio) / 1500; frac < 0.95 {
		t.Fatalf("fake follower/friend ratios not lopsided: %.3f", frac)
	}
	if frac := float64(spammy) / 1500; frac < 0.7 {
		t.Fatalf("fakes not spammy enough: %.3f", frac)
	}
}

func TestBuildTargetFollowTimesMonotonic(t *testing.T) {
	g, store, _ := newGen(t)
	target, err := g.BuildTarget(TargetSpec{ScreenName: "mono", Followers: 500})
	if err != nil {
		t.Fatal(err)
	}
	edges, _ := store.FollowEdges(target)
	for i := 1; i < len(edges); i++ {
		if edges[i].At.Before(edges[i-1].At) {
			t.Fatalf("follow times not monotonic at %d", i)
		}
	}
}

func TestGrowFollowersAppendsAtEnd(t *testing.T) {
	g, store, clock := newGen(t)
	target, err := g.BuildTarget(TargetSpec{ScreenName: "growing", Followers: 200})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := store.FollowersChronological(target)
	clock.Advance(24 * time.Hour)
	if err := g.GrowFollowers(target, 30, Mix{Genuine: 1}); err != nil {
		t.Fatal(err)
	}
	after, _ := store.FollowersChronological(target)
	if len(after) != 230 {
		t.Fatalf("after growth = %d", len(after))
	}
	for i, id := range before {
		if after[i] != id {
			t.Fatalf("existing order disturbed at %d", i)
		}
	}
	newest, _ := store.FollowersNewestFirst(target)
	newCounts := store.ClassCounts(newest[:30])
	if newCounts[twitter.ClassGenuine] != 30 {
		t.Fatalf("new follower classes = %v", newCounts)
	}
}

func TestBuyFollowersBurst(t *testing.T) {
	g, store, clock := newGen(t)
	target, err := g.BuildTarget(TargetSpec{ScreenName: "buyer", Followers: 1000})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if err := g.BuyFollowers(target, 500); err != nil {
		t.Fatal(err)
	}
	newest, _ := store.FollowersNewestFirst(target)
	counts := store.ClassCounts(newest[:500])
	junk := counts[twitter.ClassFake] + counts[twitter.ClassInactive]
	if junk < 480 {
		t.Fatalf("bought batch contains %d junk accounts, want ≈500", junk)
	}
}

func TestBuildTargetBadSpec(t *testing.T) {
	g, _, _ := newGen(t)
	if _, err := g.BuildTarget(TargetSpec{}); err == nil {
		t.Fatal("empty spec should fail")
	}
	if _, err := g.BuildTarget(TargetSpec{ScreenName: "x", Followers: -1}); err == nil {
		t.Fatal("negative followers should fail")
	}
}

func TestBuildTargetZeroFollowers(t *testing.T) {
	g, store, _ := newGen(t)
	target, err := g.BuildTarget(TargetSpec{ScreenName: "lonely"})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := store.FollowerCount(target); n != 0 {
		t.Fatalf("follower count = %d", n)
	}
}

func TestDeriveLayoutSmallAccount(t *testing.T) {
	truth := FromPercentages(25, 1.4, 73.6)
	l := DeriveLayout(929, truth, FromPercentages(0, 0, 100), FromPercentages(28, 0, 72))
	if len(l) != 1 {
		t.Fatalf("small account layout bands = %d, want 1", len(l))
	}
	got := l.Truth(929)
	if math.Abs(got.Inactive-truth.Inactive) > 0.01 {
		t.Fatalf("truth not preserved: %+v", got)
	}
}

func TestDeriveLayoutMidAccount(t *testing.T) {
	truth := FromPercentages(44.3, 9.9, 45.8)
	sb := FromPercentages(5, 27, 68)
	sp := FromPercentages(58, 18, 24)
	const n = 13900
	l := DeriveLayout(n, truth, sb, sp)
	if len(l) != 2 {
		t.Fatalf("bands = %d, want 2", len(l))
	}
	// Whole-list truth must be preserved by construction.
	got := l.Truth(n)
	if math.Abs(got.Inactive-truth.Inactive) > 0.02 {
		t.Fatalf("derived truth inactive = %.3f, want %.3f", got.Inactive, truth.Inactive)
	}
	// The newest 2000 must match the SB observation.
	if m := l.mixAt(0); math.Abs(m.Fake-sb.Fake) > 0.01 {
		t.Fatalf("newest band fake = %.3f, want %.3f", m.Fake, sb.Fake)
	}
}

func TestDeriveLayoutLargeAccount(t *testing.T) {
	// @PC_Chiambretti: FC 97/1.2/1.8, SB 17/35/48, SP 48/44/8 over 70900.
	truth := FromPercentages(97, 1.2, 1.8)
	sb := FromPercentages(17, 35, 48)
	sp := FromPercentages(48, 44, 8)
	const n = 70900
	l := DeriveLayout(n, truth, sb, sp)
	if len(l) != 3 {
		t.Fatalf("bands = %d, want 3", len(l))
	}
	// The FC truth has priority and must be preserved even though the SP
	// observation is inconsistent with it (the paper's finding).
	got := l.Truth(n)
	if math.Abs(got.Inactive-truth.Inactive) > 0.025 {
		t.Fatalf("derived truth inactive = %.3f, want 0.97", got.Inactive)
	}
	// The newest-35000 window must be at least as dormant as SP reported
	// (SP *undercounts* inactives; it cannot overcount here).
	var spView Mix
	for d := 0; d < 35000; d++ {
		m := l.mixAt(d)
		spView.Inactive += m.Inactive
		spView.Fake += m.Fake
		spView.Genuine += m.Genuine
	}
	spView.Inactive /= 35000
	spView.Fake /= 35000
	spView.Genuine /= 35000
	if spView.Inactive < sp.Inactive {
		t.Fatalf("SP window inactive = %.3f, want >= observed %.3f", spView.Inactive, sp.Inactive)
	}
	// The deep body must be almost entirely inactive (the abandoned base).
	if body := l.mixAt(n - 1); body.Inactive < 0.97 {
		t.Fatalf("body inactive = %.3f, want ≈0.99+", body.Inactive)
	}
}

func TestDeriveLayoutTruthPreservationProperty(t *testing.T) {
	// Property: for arbitrary (even mutually inconsistent) tool columns,
	// the derived layout preserves the FC truth within a couple of points
	// — truth has priority over the window observations.
	next := uint64(12345)
	rnd := func() float64 {
		next = next*6364136223846793005 + 1442695040888963407
		return float64(next>>11) / float64(1<<53)
	}
	randMix := func() Mix {
		a, b, c := rnd()+0.01, rnd()+0.01, rnd()+0.01
		return Mix{Inactive: a, Fake: b, Genuine: c}.Normalised()
	}
	for trial := 0; trial < 300; trial++ {
		n := 2500 + int(rnd()*200000)
		truth := randMix()
		sb := randMix()
		sp := randMix()
		l := DeriveLayout(n, truth, sb, sp)
		got := l.Truth(n)
		const tol = 0.035
		if math.Abs(got.Inactive-truth.Inactive) > tol ||
			math.Abs(got.Fake-truth.Fake) > tol ||
			math.Abs(got.Genuine-truth.Genuine) > tol {
			t.Fatalf("trial %d (n=%d): truth %+v not preserved: %+v", trial, n, truth, got)
		}
		for _, seg := range l {
			if seg.Mix.Inactive < 0 || seg.Mix.Fake < 0 || seg.Mix.Genuine < 0 {
				t.Fatalf("trial %d: negative band mix %+v", trial, seg.Mix)
			}
		}
	}
}

func TestDeriveLayoutClampsInfeasible(t *testing.T) {
	// A contradictory system (tools saw more fakes than exist overall)
	// must clamp, not produce negative mixes.
	truth := FromPercentages(5, 1, 94)
	sb := FromPercentages(80, 15, 5)
	sp := FromPercentages(70, 20, 10)
	l := DeriveLayout(100000, truth, sb, sp)
	for _, seg := range l {
		if seg.Mix.Inactive < 0 || seg.Mix.Fake < 0 || seg.Mix.Genuine < 0 {
			t.Fatalf("negative mix: %+v", seg.Mix)
		}
		if math.Abs(seg.Mix.Sum()-1) > 1e-9 {
			t.Fatalf("unnormalised mix: %+v", seg.Mix)
		}
	}
}
