package wal_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
	"fakeproject/internal/wal"
)

// churned names the accounts of the state buildChurned leaves behind.
type churned struct {
	purged   twitter.UserID // synthetic counter 500, every edge removed
	target   twitter.UserID // edges removed at lastAt, survivors remain
	survivor twitter.UserID // a live follower of target
	lastAt   time.Time      // instant of the newest removal and tweet
}

// buildChurned drives s through follows, a full purge, a partial purge and a
// tweet, the last two 0.7 s into a second.
func buildChurned(t *testing.T, s *twitter.Store) churned {
	t.Helper()
	c := churned{
		purged: s.MustCreateUser(twitter.UserParams{ScreenName: "purged", Followers: 500}),
		target: s.MustCreateUser(twitter.UserParams{ScreenName: "target"}),
		lastAt: simclock.Epoch.Add(700 * time.Millisecond),
	}
	var followers []twitter.UserID
	for i := 0; i < 4; i++ {
		f := s.MustCreateUser(twitter.UserParams{})
		for _, target := range []twitter.UserID{c.purged, c.target} {
			if err := s.AddFollower(target, f, simclock.Epoch.Add(-time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		followers = append(followers, f)
	}
	c.survivor = followers[3]
	if n, err := s.RemoveFollowers(c.purged, followers, c.lastAt); err != nil || n != 4 {
		t.Fatalf("full purge removed %d: %v", n, err)
	}
	if n, err := s.RemoveFollowers(c.target, followers[:2], c.lastAt); err != nil || n != 2 {
		t.Fatalf("partial purge removed %d: %v", n, err)
	}
	if _, err := s.AppendTweet(c.target, twitter.Tweet{CreatedAt: c.lastAt, Text: "t", Source: "web"}); err != nil {
		t.Fatal(err)
	}
	return c
}

// reloads returns, per way of bringing a store back, a fresh store holding
// buildChurned's state: built in place, read from a snapshot, read from a
// snapshot as a range that leaves the purged account to the record fold,
// and recovered from a write-ahead log with and without a compaction.
func reloads() map[string]func(t *testing.T) (*twitter.Store, churned) {
	snapshot := func(t *testing.T) ([]byte, churned) {
		s := twitter.NewStore(simclock.NewVirtualAtEpoch(), 3)
		c := buildChurned(t, s)
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c
	}
	recovered := func(compact bool) func(t *testing.T) (*twitter.Store, churned) {
		return func(t *testing.T) (*twitter.Store, churned) {
			dir := t.TempDir()
			cfg := wal.Config{Dir: dir, Policy: wal.PolicyOff, Clock: simclock.NewVirtualAtEpoch(), Seed: 3}
			s, l, _, err := wal.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := buildChurned(t, s)
			if compact {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			cfg.Clock = simclock.NewVirtualAtEpoch()
			s, l, _, err = wal.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			return s, c
		}
	}
	return map[string]func(t *testing.T) (*twitter.Store, churned){
		"live": func(t *testing.T) (*twitter.Store, churned) {
			s := twitter.NewStore(simclock.NewVirtualAtEpoch(), 3)
			return s, buildChurned(t, s)
		},
		"snapshot": func(t *testing.T) (*twitter.Store, churned) {
			raw, c := snapshot(t)
			s, err := twitter.ReadSnapshot(bytes.NewReader(raw), simclock.NewVirtualAtEpoch())
			if err != nil {
				t.Fatal(err)
			}
			return s, c
		},
		"range": func(t *testing.T) (*twitter.Store, churned) {
			raw, c := snapshot(t)
			keep := func(id twitter.UserID) bool { return id != c.purged }
			s, err := twitter.ReadSnapshotRange(bytes.NewReader(raw), simclock.NewVirtualAtEpoch(), keep)
			if err != nil {
				t.Fatal(err)
			}
			return s, c
		},
		"wal":           recovered(false),
		"wal-compacted": recovered(true),
	}
}

// TestPurgedTargetSurvivesReload: a target that lost every edge reports 0
// followers, not its synthetic counter, and a removal older than the
// newest one is rejected — however the store was brought back.
func TestPurgedTargetSurvivesReload(t *testing.T) {
	for name, load := range reloads() {
		t.Run(name, func(t *testing.T) {
			s, c := load(t)
			if n, err := s.FollowerCount(c.purged); err != nil || n != 0 {
				t.Fatalf("purged target FollowerCount = %d, %v; want 0", n, err)
			}
			if p, err := s.Profile(c.purged); err != nil || p.FollowersCount != 0 {
				t.Fatalf("purged target profile followers = %d, %v; want 0", p.FollowersCount, err)
			}
			stale := c.lastAt.Add(-time.Second)
			if _, err := s.RemoveFollowers(c.target, []twitter.UserID{c.survivor}, stale); !errors.Is(err, twitter.ErrNotMonotonic) {
				t.Fatalf("stale removal err = %v, want ErrNotMonotonic", err)
			}
			if _, err := s.AppendTweet(c.target, twitter.Tweet{CreatedAt: stale}); !errors.Is(err, twitter.ErrNotMonotonic) {
				t.Fatalf("stale tweet err = %v, want ErrNotMonotonic", err)
			}
		})
	}
}

// TestMonotonicityIsPerSecondAcrossReloads: snapshots and the write-ahead
// log keep event times at the second, so a live store must compare tweets
// and removals at the second too. After both at t+0.7 s, a tweet and a
// removal at t+0.3 s are accepted by the live store exactly as by every
// reloaded twin.
func TestMonotonicityIsPerSecondAcrossReloads(t *testing.T) {
	for name, load := range reloads() {
		t.Run(name, func(t *testing.T) {
			s, c := load(t)
			early := c.lastAt.Add(-400 * time.Millisecond)
			if n, err := s.RemoveFollowers(c.target, []twitter.UserID{c.survivor}, early); err != nil || n != 1 {
				t.Fatalf("same-second removal = %d, %v; want 1, nil", n, err)
			}
			if _, err := s.AppendTweet(c.target, twitter.Tweet{CreatedAt: early}); err != nil {
				t.Fatalf("same-second tweet: %v", err)
			}
		})
	}
}
