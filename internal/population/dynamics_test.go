package population

import (
	"testing"
	"time"

	"fakeproject/internal/twitter"
)

func dynTarget(t *testing.T) (*Generator, *twitter.Store, twitter.UserID, func(time.Duration)) {
	t.Helper()
	g, store, clock := newGen(t)
	target, err := g.BuildTarget(TargetSpec{
		ScreenName: "drifting",
		Followers:  4000,
		Layout:     Layout{{Width: 0, Mix: Mix{Inactive: 0.2, Fake: 0.1, Genuine: 0.7}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, store, target, clock.Advance
}

// removedIn sums the follow edges a driver log says were removed.
func removedIn(log []AppliedEvent) int {
	n := 0
	for _, ev := range log {
		n += ev.Removed
	}
	return n
}

func TestDriverOrganicDay(t *testing.T) {
	g, store, target, advance := dynTarget(t)
	d := NewDriver(g, target, ChurnScript{DailyGrowth: 100, DailyChurnRate: 0.01})

	for day := 1; day <= 3; day++ {
		advance(24 * time.Hour)
		applied, err := d.AdvanceDay()
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) != 1 || applied[0].Kind != ChurnOrganic {
			t.Fatalf("day %d applied %+v, want one organic event", day, applied)
		}
		if applied[0].Added != 100 || applied[0].Removed == 0 {
			t.Fatalf("day %d organic = %+v, want 100 added and some churn", day, applied[0])
		}
	}
	if d.Day() != 3 {
		t.Fatalf("Day() = %d, want 3", d.Day())
	}
	count, _ := store.FollowerCount(target)
	removed := removedIn(d.Log())
	if count != 4000+300-removed {
		t.Fatalf("count = %d with %d removed, want balance to hold", count, removed)
	}
	// Roughly 1%/day of ~4100 followers churns.
	if removed < 90 || removed > 150 {
		t.Fatalf("organic churn removed %d over 3 days, want ≈120", removed)
	}
	// Successive growth cohorts must not be clones of each other.
	newest, _ := store.FollowersNewestFirst(target)
	p1, _ := store.Profile(newest[0])
	p2, _ := store.Profile(newest[100])
	if p1.StatusesCount == p2.StatusesCount && p1.FriendsCount == p2.FriendsCount &&
		p1.FollowersCount == p2.FollowersCount {
		t.Fatalf("day cohorts look cloned: %+v vs %+v", p1, p2)
	}
}

func TestDriverPurchaseBurstLandsNewest(t *testing.T) {
	g, store, target, advance := dynTarget(t)
	d := NewDriver(g, target, ChurnScript{
		DailyGrowth: 50,
		Events:      []ChurnEvent{{Day: 2, Kind: ChurnPurchase, Size: 800}},
	})
	for day := 1; day <= 2; day++ {
		advance(24 * time.Hour)
		if _, err := d.AdvanceDay(); err != nil {
			t.Fatal(err)
		}
	}
	newest, _ := store.FollowersNewestFirst(target)
	counts := store.ClassCounts(newest[:800])
	junk := counts[twitter.ClassFake] + counts[twitter.ClassInactive]
	if junk < 760 {
		t.Fatalf("burst window holds %d junk of 800, want ≈800", junk)
	}
	log := d.Log()
	var sawBurst bool
	for _, ev := range log {
		if ev.Kind == ChurnPurchase && ev.Day == 2 && ev.Added == 800 {
			sawBurst = true
		}
	}
	if !sawBurst {
		t.Fatalf("ground-truth log misses the burst: %+v", log)
	}
}

func TestDriverPurgeRemovesFakes(t *testing.T) {
	g, store, target, advance := dynTarget(t)
	d := NewDriver(g, target, ChurnScript{
		Events: []ChurnEvent{
			{Day: 1, Kind: ChurnPurchase, Size: 1000},
			{Day: 2, Kind: ChurnPurge, Fraction: 0.5},
		},
	})
	advance(24 * time.Hour)
	if _, err := d.AdvanceDay(); err != nil {
		t.Fatal(err)
	}
	truthBefore, _, err := d.Truth()
	if err != nil {
		t.Fatal(err)
	}
	advance(24 * time.Hour)
	applied, err := d.AdvanceDay()
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Kind != ChurnPurge || applied[0].Removed == 0 {
		t.Fatalf("day 2 applied %+v, want a purge with removals", applied)
	}
	truthAfter, count, err := d.Truth()
	if err != nil {
		t.Fatal(err)
	}
	if truthAfter.Fake >= truthBefore.Fake {
		t.Fatalf("fake share %0.3f did not drop from %0.3f after purge", truthAfter.Fake, truthBefore.Fake)
	}
	// Purged edges left the live list, and the driver's log counts them.
	removed := removedIn(d.Log())
	if removed != applied[0].Removed {
		t.Fatalf("driver log removed %d vs applied %d", removed, applied[0].Removed)
	}
	if live, _ := store.FollowerCount(target); live != count || live != 5000-removed {
		t.Fatalf("live count %d, want %d", live, 5000-removed)
	}
	// The purge targets fakes: about half of them are gone.
	classBefore := int(truthBefore.Fake * 5000)
	if applied[0].Removed < classBefore/3 || applied[0].Removed > classBefore {
		t.Fatalf("purge removed %d of ≈%d fakes, want ≈half", applied[0].Removed, classBefore)
	}
}

func TestDriverUnknownEventKind(t *testing.T) {
	g, _, target, advance := dynTarget(t)
	d := NewDriver(g, target, ChurnScript{Events: []ChurnEvent{{Day: 1, Kind: "meltdown"}}})
	advance(24 * time.Hour)
	if _, err := d.AdvanceDay(); err == nil {
		t.Fatal("unknown event kind must error")
	}
}
