package twitter

import (
	"io"
	"sync"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// TestSimclockSleepersRaceShardWriters pits virtual-clock sleepers (the
// pacing loops of monitord/auditd all sleep on the shared clock) against
// writers that stamp edges with clock.Now() while creates, per-target
// follower appends and snapshots run concurrently on one store lock. Run under
// -race in CI. The virtual clock only moves forward, so per-target edge
// times stay monotonic no matter how the sleepers interleave with the
// writers — every AddFollower must succeed.
func TestSimclockSleepersRaceShardWriters(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := NewStore(clock, 11)

	const (
		writers     = 8
		sleepers    = 4
		perWriter   = 300
		followerSet = 64
	)
	store.Grow(writers + followerSet + writers*perWriter)
	targets := make([]UserID, writers)
	for i := range targets {
		targets[i] = store.MustCreateUser(UserParams{CreatedAt: simclock.Epoch.AddDate(-1, 0, 0)})
	}
	followers := make([]UserID, followerSet)
	for i := range followers {
		followers[i] = store.MustCreateUser(UserParams{CreatedAt: simclock.Epoch.AddDate(-1, 0, 0)})
	}

	errs := make(chan error, writers)
	stop := make(chan struct{})

	// Sleepers: advance the shared clock the way paced daemons do.
	var sleeperWG sync.WaitGroup
	for s := 0; s < sleepers; s++ {
		sleeperWG.Add(1)
		go func() {
			defer sleeperWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					clock.Sleep(time.Second)
				}
			}
		}()
	}

	// Writers: one target each (per-target monotonicity is the writer's own
	// responsibility; the clock's forward-only guarantee must be enough).
	// Half the appended followers are fresh creates, so the allocator plane
	// races the sleepers too, and periodic snapshots take the store lock
	// mid-storm.
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				follower := followers[(w+i)%followerSet]
				if i%2 == 0 {
					follower = store.MustCreateUser(UserParams{})
				}
				if err := store.AddFollower(targets[w], follower, clock.Now()); err != nil {
					errs <- err
					return
				}
				if i%64 == 0 {
					if err := store.WriteSnapshot(io.Discard); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	writersDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case err := <-errs:
		close(stop)
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		close(stop)
		t.Fatal("writers stalled")
	}
	close(stop)
	sleeperWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Edge times must be non-decreasing per target, dense in seq, and
	// within the clock's final position.
	end := clock.Now()
	for _, target := range targets {
		edges, err := store.FollowEdges(target)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != perWriter {
			t.Fatalf("target %d has %d edges, want %d", target, len(edges), perWriter)
		}
		for i := 1; i < len(edges); i++ {
			if edges[i].At.Before(edges[i-1].At) {
				t.Fatalf("target %d: edge %d time regressed", target, i)
			}
			if edges[i].Seq != edges[i-1].Seq+1 {
				t.Fatalf("target %d: seq gap at %d", target, i)
			}
		}
		if edges[len(edges)-1].At.After(end) {
			t.Fatalf("target %d: edge stamped after the clock's final position", target)
		}
	}
	if want := writers + followerSet + writers*perWriter/2; store.UserCount() != want {
		t.Fatalf("user count %d, want %d", store.UserCount(), want)
	}
}
