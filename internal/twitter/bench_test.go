package twitter

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

func benchStore(b testing.TB, followers int) (*Store, UserID) {
	b.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := NewStore(clock, 1)
	store.Grow(followers + 1)
	target := store.MustCreateUser(UserParams{ScreenName: "t"})
	at := simclock.Epoch.AddDate(-1, 0, 0)
	for i := 0; i < followers; i++ {
		id := store.MustCreateUser(UserParams{
			CreatedAt: simclock.Epoch.AddDate(-2, 0, 0),
			LastTweet: simclock.Epoch.AddDate(0, 0, -5),
			Statuses:  200, Friends: 150, Followers: 80,
			Bio: true, Location: true,
			Behavior: Behavior{RetweetRatio: 0.2, LinkRatio: 0.3, DuplicateRatio: 0.05},
		})
		if err := store.AddFollower(target, id, at); err != nil {
			b.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	return store, target
}

// BenchmarkCreateUser measures procedural account creation (the population
// build hot path: ~1.5M calls for the full testbed).
func BenchmarkCreateUser(b *testing.B) {
	clock := simclock.NewVirtualAtEpoch()
	store := NewStore(clock, 1)
	store.Grow(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.MustCreateUser(UserParams{Statuses: 10, Friends: 100})
	}
}

// BenchmarkProfileMaterialise measures compact-record → Profile expansion
// (the users/lookup hot path).
func BenchmarkProfileMaterialise(b *testing.B) {
	store, _ := benchStore(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Profile(UserID(2 + i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowersNewestFirst measures the API-order view of a 50K list.
func BenchmarkFollowersNewestFirst(b *testing.B) {
	store, target := benchStore(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, err := store.FollowersNewestFirst(target)
		if err != nil || len(ids) != 50000 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowersPage measures one 5K API page against the same 50K list
// — the per-call cost a paging crawler actually pays (binary search on the
// seq anchor + a page copy), versus the full-list copy of
// BenchmarkFollowersNewestFirst. Anchors rotate through the list so the
// search depth is representative, not best-case.
func BenchmarkFollowersPage(b *testing.B) {
	store, target := benchStore(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, err := store.FollowersPage(target, uint64((i%10+1)*5000), 5000)
		if err != nil || len(page.IDs) != 5000 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowersPageParallel measures the same 5K page with all
// goroutines hammering one target — the celebrity-read case. Pages are
// served off the RCU-published segment view with no store lock, so
// throughput should scale with reader parallelism instead of serialising on
// the lock.
func BenchmarkFollowersPageParallel(b *testing.B) {
	store, target := benchStore(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			page, err := store.FollowersPage(target, uint64((i%10+1)*5000), 5000)
			if err != nil || len(page.IDs) != 5000 {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSynthTimeline measures deterministic timeline synthesis
// (200 tweets, the user_timeline page size).
func BenchmarkSynthTimeline(b *testing.B) {
	store, _ := benchStore(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := store.Timeline(UserID(2+i%10), 200)
		if err != nil || len(tl) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreateUserPostGrow is the Grow contract as a benchmark: with
// capacity reserved up front, the population build hot path must
// run allocation-free (b.ReportAllocs makes the 0 allocs/op visible).
func BenchmarkCreateUserPostGrow(b *testing.B) {
	store := NewStore(simclock.NewVirtualAtEpoch(), 1)
	store.Grow(b.N)
	params := UserParams{CreatedAt: simclock.Epoch, Statuses: 10, Friends: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.MustCreateUser(params)
	}
}

// buildMixedStore assembles the parallel-mixed fixture: `targets` accounts
// with materialised follower lists (seeded with initial edges) plus a pool
// of plain accounts serving as followers and profile-read subjects.
func buildMixedStore(tb testing.TB, targets, accounts, seedEdges int) *Store {
	tb.Helper()
	store := NewStore(simclock.NewVirtualAtEpoch(), 1)
	store.Grow(accounts)
	params := UserParams{
		CreatedAt: simclock.Epoch.AddDate(-2, 0, 0),
		LastTweet: simclock.Epoch.AddDate(0, 0, -3),
		Statuses:  120, Friends: 200, Followers: 90,
		Bio:      true,
		Behavior: Behavior{RetweetRatio: 0.2, LinkRatio: 0.3},
	}
	for i := 0; i < accounts; i++ {
		store.MustCreateUser(params)
	}
	at := simclock.Epoch.AddDate(-1, 0, 0)
	for t := 0; t < targets; t++ {
		target := UserID(t + 1)
		for e := 0; e < seedEdges; e++ {
			follower := UserID(targets + 1 + (t*seedEdges+e)%(accounts-targets))
			if err := store.AddFollower(target, follower, at); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return store
}

// benchmarkParallelMixed measures mixed read/write throughput under
// contention: `workers` goroutines split b.N ops — 50% follower pages, 20%
// profile lookups, 10% timeline synthesis, 20% follower appends — across 64
// targets. Uniform skew spreads ops over all targets; hot skew sends 90% of
// ops to one target, the celebrity-audit case.
func benchmarkParallelMixed(b *testing.B, workers int, leg string) {
	const (
		targets   = 64
		accounts  = 8192
		seedEdges = 300
	)
	store := buildMixedStore(b, targets, accounts, seedEdges)
	at := store.Now()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
			ids := make([]UserID, 100)
			for i := 0; i < n; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				r := rng >> 33
				if leg == "scan=100" { // read-only users/lookup batch
					for j := range ids {
						rng = rng*6364136223846793005 + 1442695040888963407
						ids[j] = UserID(1 + (rng>>33)%accounts)
					}
					store.ScanProfiles(ids, func(ProfileView) {})
					continue
				}
				target := UserID(1 + r%targets)
				if leg == "skew=hot" && r%10 < 9 {
					target = 1
				}
				switch op := (r >> 8) % 10; {
				case op < 5: // follower page
					if _, err := store.FollowersPage(target, SeqNewest, 100); err != nil {
						b.Error(err)
						return
					}
				case op < 7: // profile materialisation
					if _, err := store.Profile(UserID(1 + (r>>12)%accounts)); err != nil {
						b.Error(err)
						return
					}
				case op < 8: // synthetic timeline
					if _, err := store.Timeline(UserID(1+targets+(r>>12)%(accounts-targets)), 10); err != nil {
						b.Error(err)
						return
					}
				default: // follower append (20% writes)
					follower := UserID(1 + targets + (r>>12)%(accounts-targets))
					if err := store.AddFollower(target, follower, at); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkParallelMixed is the store-lock contention suite: the 20 %-write
// mix (uniform or hot-target skew) and read-only 100-id ScanProfiles
// batches, at 1, 4 and 8 goroutines:
//
//	go test ./internal/twitter -run '^$' -bench ParallelMixed -cpu 2 -benchtime 20000x
func BenchmarkParallelMixed(b *testing.B) {
	for _, leg := range []string{"skew=uniform", "skew=hot", "scan=100"} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", leg, workers), func(b *testing.B) {
				benchmarkParallelMixed(b, workers, leg)
			})
		}
	}
}

// BenchmarkRemoveFollowers times the two removals of a churn tick on a
// celebrity list of 400 000 organic edges followed by bought bursts of 4096:
// purge is the purge of the burst bought two bursts earlier (8192 edges from
// the newest, beside a fresh purchase that is not timed), unfollow the
// departure of a uniformly random organic follower. Compare the two against
// the churn-wal rows twitter.remove_followers_ms and twitter.unfollow_ms:
//
//	go test ./internal/twitter -run '^$' -bench RemoveFollowers -cpu 1
func BenchmarkRemoveFollowers(b *testing.B) {
	const organic, burst = 400_000, 4096
	store, target := benchStore(b, organic)
	var groups [4][]UserID // bought bursts, reused round-robin
	for g := range groups {
		for i := 0; i < burst; i++ {
			groups[g] = append(groups[g], store.MustCreateUser(UserParams{CreatedAt: simclock.Epoch}))
		}
	}
	at := simclock.Epoch
	buy := func(g int) {
		at = at.Add(time.Second)
		for _, f := range groups[g%len(groups)] {
			if err := store.AddFollower(target, f, at); err != nil {
				b.Fatal(err)
			}
		}
	}
	buy(0)
	buy(1)
	bought := 2 // bursts bought so far; the live ones are the last two
	b.Run("purge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			buy(bought)
			bought++
			b.StartTimer()
			n, err := store.RemoveFollowers(target, groups[(bought-3)%len(groups)], at)
			if err != nil || n != burst {
				b.Fatalf("purge removed %d of %d: %v", n, burst, err)
			}
		}
	})
	leavers := rand.New(rand.NewSource(1)).Perm(organic)
	b.Run("unfollow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(leavers) == 0 {
				b.Fatal("every organic follower has left")
			}
			at = at.Add(time.Second)
			ok, err := store.Unfollow(target, target+1+UserID(leavers[0]), at)
			if err != nil || !ok {
				b.Fatalf("unfollow: %v %v", ok, err)
			}
			leavers = leavers[1:]
		}
	})
}
