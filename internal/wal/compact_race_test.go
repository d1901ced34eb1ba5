package wal_test

import (
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/twitter/difftest"
	"fakeproject/internal/wal"
)

// TestCompactionUnderConcurrentWriters races repeated compactions against
// writer goroutines churning follows, unfollows, purges and tweets, then
// hands the store to the oracle: the live state, and the state recovered
// from one more compaction, must both equal the reference model's
// sequential replay of the writers' scripts (the snapshot cut plus the
// post-cut log tail lose and duplicate nothing), and nothing may trip the
// race detector (run under -race in CI).
func TestCompactionUnderConcurrentWriters(t *testing.T) {
	const (
		writers      = 4
		flock        = 8
		opsPerWriter = 400
	)
	// One target per writer keeps each goroutine's edge times monotone
	// without cross-writer coordination; followers are created up front so
	// the churn is pure edge/tweet traffic, and per-target scripts commute.
	// Tweet IDs are global, so only the first writer tweets; the others
	// purge instead.
	var creates []difftest.Op
	scripts := make([][]difftest.Op, writers)
	for i := range scripts {
		target := twitter.UserID(1 + i*(flock+1))
		for j := 0; j <= flock; j++ {
			creates = append(creates, difftest.Op{Kind: difftest.OpCreate})
		}
		at := simclock.Epoch
		for n := 0; n < opsPerWriter; n++ {
			at = at.Add(time.Second)
			op := difftest.Op{Target: target, Follower: target + 1 + twitter.UserID(n%flock), At: at}
			switch n % 4 {
			case 0, 1:
				op.Kind = difftest.OpFollow
			case 2:
				op.Kind = difftest.OpUnfollow
			case 3:
				if i == 0 {
					op.Kind = difftest.OpTweet
					op.Tweet = twitter.Tweet{CreatedAt: at, Text: "churn", Source: "test"}
				} else {
					op.Kind = difftest.OpPurge
					op.Purge = []twitter.UserID{op.Follower, op.Follower - 1}
				}
			}
			scripts[i] = append(scripts[i], op)
		}
	}
	prefix := creates
	for _, s := range scripts {
		prefix = append(prefix, s...)
	}

	race := func(tb difftest.TB) difftest.Applier {
		w := newWALStore(tb, wal.PolicyInterval, true, false)
		for range creates {
			if _, err := w.CreateUser(twitter.UserParams{}); err != nil {
				tb.Fatalf("create: %v", err)
			}
		}
		errs := make(chan error, writers+1)
		for _, script := range scripts {
			go func() {
				for _, op := range script {
					var err error
					switch op.Kind {
					case difftest.OpFollow:
						err = w.AddFollower(op.Target, op.Follower, op.At)
					case difftest.OpUnfollow:
						_, err = w.Unfollow(op.Target, op.Follower, op.At)
					case difftest.OpPurge:
						_, err = w.RemoveFollowers(op.Target, op.Purge, op.At)
					case difftest.OpTweet:
						_, err = w.AppendTweet(op.Target, op.Tweet)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		// Compact continuously while the writers churn: every iteration
		// cuts a snapshot inside the writers' critical sections and
		// truncates the log behind it.
		stop := make(chan struct{})
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				case <-time.After(5 * time.Millisecond):
					if err := w.log.Compact(); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		for i := 0; i < writers; i++ {
			if err := <-errs; err != nil {
				tb.Fatalf("writer: %v", err)
			}
		}
		close(stop)
		if err := <-errs; err != nil {
			tb.Fatalf("compaction: %v", err)
		}
		return w
	}

	// The live state is checked after the page, the recovered one after
	// the path back: one more compaction at quiescence, then a reopen.
	difftest.Check(t, difftest.CheckConfig{
		Prefix:      prefix,
		Ops:         []difftest.Op{{Kind: difftest.OpPage, Target: 1, FromSeq: twitter.SeqNewest, Limit: 5}, {Kind: difftest.OpSnapshot}},
		Deployments: []difftest.Deployment{{Name: "wal/compact-race", New: race}},
		CheckEvery:  1,
	})
}
