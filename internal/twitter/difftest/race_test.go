package difftest_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitter/difftest"
)

// TestLockFreeReadersRaceWriters pins the RCU read path under the race
// detector: writer goroutines (each owning one target, so per-target op
// order is deterministic) churn edges and friend lists through the store
// mutex while reader goroutines hammer the lock-free surface — pages,
// counts, edge dumps, profiles — with no synchronisation against the
// writers at all. Afterwards the store must match a reference model that
// applied the same per-target scripts sequentially: the race neither
// corrupted state nor (with -race) touched memory unsafely.
func TestLockFreeReadersRaceWriters(t *testing.T) {
	const nTargets = 4
	followersPer := 900
	if testing.Short() {
		followersPer = 250
	}

	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	ref := difftest.NewRef(simclock.NewVirtualAtEpoch())
	created := simclock.Epoch.AddDate(-1, 0, 0)
	total := nTargets + nTargets*followersPer
	for i := 0; i < total; i++ {
		p := twitter.UserParams{CreatedAt: created, Followers: 1000 + i, Friends: 10 + i%50}
		a := store.MustCreateUser(p)
		b, err := ref.CreateUser(p)
		if err != nil || a != b {
			t.Fatalf("create %d: %d vs %d (%v)", i, a, b, err)
		}
	}

	// Per-target scripts: strictly advancing times, periodic purges, friend
	// list rewrites. Deterministic, so the sequential reference replay below
	// reaches the exact same per-target state.
	type step struct {
		follower twitter.UserID
		at       time.Time
		purge    []twitter.UserID
		friends  []twitter.UserID
	}
	scripts := make([][]step, nTargets)
	for ti := range scripts {
		target := twitter.UserID(ti + 1)
		at := simclock.Epoch
		var steps []step
		for i := 0; i < followersPer; i++ {
			f := twitter.UserID(nTargets + ti*followersPer + i + 1)
			at = at.Add(time.Duration(1+i%7) * time.Second)
			steps = append(steps, step{follower: f, at: at})
			if i%97 == 96 {
				at = at.Add(time.Second)
				steps = append(steps, step{at: at, purge: []twitter.UserID{f - 1, f - 3, f - 90}})
			}
			if i%61 == 60 {
				steps = append(steps, step{friends: []twitter.UserID{target, f, f - 2}})
			}
		}
		_ = target
		scripts[ti] = steps
	}

	apply := func(sys difftest.System, target twitter.UserID, s step) error {
		switch {
		case s.purge != nil:
			_, err := sys.RemoveFollowers(target, s.purge, s.at)
			return err
		case s.friends != nil:
			return sys.SetFriends(target, s.friends)
		default:
			return sys.AddFollower(target, s.follower, s.at)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Readers: no locks, no coordination with the writers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for ti := 0; ti < nTargets; ti++ {
					target := twitter.UserID(ti + 1)
					page, err := store.FollowersPage(target, twitter.SeqNewest, 64)
					if err != nil || len(page.IDs) > 64 {
						t.Errorf("racing page: %v (%d ids)", err, len(page.IDs))
						return
					}
					if page.NextSeq != 0 {
						if _, err := store.FollowersPage(target, page.NextSeq, 64); err != nil {
							t.Errorf("racing anchored page: %v", err)
							return
						}
					}
					if _, err := store.FollowerCount(target); err != nil {
						t.Errorf("racing count: %v", err)
						return
					}
					if _, err := store.FriendsCount(target); err != nil {
						t.Errorf("racing friends count: %v", err)
						return
					}
					store.Friends(target)
					store.IsTarget(target)
					if _, err := store.FollowEdges(target); err != nil {
						t.Errorf("racing edge dump: %v", err)
						return
					}
					if _, err := store.Profile(target); err != nil {
						t.Errorf("racing profile: %v", err)
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for ti := range scripts {
		writers.Add(1)
		go func(ti int) {
			defer writers.Done()
			target := twitter.UserID(ti + 1)
			for _, s := range scripts[ti] {
				if err := apply(store, target, s); err != nil {
					t.Errorf("writer %d: %v", ti, err)
					return
				}
			}
		}(ti)
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	for ti := range scripts {
		target := twitter.UserID(ti + 1)
		for _, s := range scripts[ti] {
			if err := apply(ref, target, s); err != nil {
				t.Fatalf("reference writer %d: %v", ti, err)
			}
		}
	}
	got, err := difftest.Observe(store, difftest.ObserveConfig{PageLimit: 33})
	if err != nil {
		t.Fatal(err)
	}
	want, err := difftest.Observe(ref, difftest.ObserveConfig{PageLimit: 33})
	if err != nil {
		t.Fatal(err)
	}
	difftest.Normalize(&got, nil)
	difftest.Normalize(&want, nil)
	if d := difftest.DiffObservations(got, want); d != "" {
		t.Fatalf("state after racing writers diverges from sequential reference: %s", d)
	}
}
