package twitter

import (
	"bytes"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// TestLockFreeReadsUnderWriteLock is the direct form of the lock-free
// contract: with the store's write lock held, the segment read paths must
// still complete. Any accidental RLock on these paths deadlocks the probe
// goroutine and fails the watchdog.
func TestLockFreeReadsUnderWriteLock(t *testing.T) {
	clock := simclock.NewVirtualAtEpoch()
	store := NewStore(clock, 1)
	target := store.MustCreateUser(UserParams{Followers: 77})
	quiet := store.MustCreateUser(UserParams{Followers: 12345, Friends: 9})
	at := simclock.Epoch
	for i := 0; i < 2*edgeBlockLen+30; i++ {
		id := store.MustCreateUser(UserParams{})
		at = at.Add(time.Second)
		if err := store.AddFollower(target, id, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.SetFriends(target, []UserID{quiet, 3, 4}); err != nil {
		t.Fatal(err)
	}

	store.mu.Lock()
	defer store.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		page, err := store.FollowersPage(target, SeqNewest, 50)
		if err != nil || len(page.IDs) != 50 || page.Total != 2*edgeBlockLen+30 {
			done <- err
			return
		}
		for _, id := range []UserID{target, quiet} {
			if _, err := store.FollowerCount(id); err != nil {
				done <- err
				return
			}
			if _, err := store.FriendsCount(id); err != nil {
				done <- err
				return
			}
			store.Friends(id)
			store.IsTarget(id)
		}
		if _, err := store.FollowEdges(target); err != nil {
			done <- err
			return
		}
		if _, err := store.FollowersChronological(target); err != nil {
			done <- err
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("segment read path blocked on the held store write lock")
	}
}

// TestFollowerCountSurvivesSetFriends and ...SurvivesAppendTweet pin the
// promotion bugfix: materialising a friend list or an explicit timeline
// promotes the account to a target, but only actual edge history may
// override the synthetic follower counter.
func TestFollowerCountSurvivesSetFriends(t *testing.T) {
	store := NewStore(simclock.NewVirtualAtEpoch(), 1)
	id := store.MustCreateUser(UserParams{Followers: 12345, Friends: 40})
	if err := store.SetFriends(id, []UserID{id}); err != nil {
		t.Fatal(err)
	}
	if !store.IsTarget(id) {
		t.Fatal("SetFriends did not promote to target")
	}
	if n, _ := store.FollowerCount(id); n != 12345 {
		t.Fatalf("FollowerCount after SetFriends = %d, want 12345", n)
	}
	p, err := store.Profile(id)
	if err != nil || p.FollowersCount != 12345 {
		t.Fatalf("Profile.FollowersCount after SetFriends = %d (%v), want 12345", p.FollowersCount, err)
	}
	if p.FriendsCount != 1 {
		t.Fatalf("FriendsCount = %d, want the materialised 1", p.FriendsCount)
	}
	// An actual edge flips authority to the materialised list — for good:
	// after the edge is purged again the count is the true 0, not 12345.
	f := store.MustCreateUser(UserParams{})
	if err := store.AddFollower(id, f, store.Now()); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.FollowerCount(id); n != 1 {
		t.Fatalf("FollowerCount after real follow = %d, want 1", n)
	}
	if _, err := store.RemoveFollowers(id, []UserID{f}, store.Now()); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.FollowerCount(id); n != 0 {
		t.Fatalf("FollowerCount after purge = %d, want 0", n)
	}
}

func TestFollowerCountSurvivesAppendTweet(t *testing.T) {
	store := NewStore(simclock.NewVirtualAtEpoch(), 1)
	id := store.MustCreateUser(UserParams{Followers: 4321})
	if _, err := store.AppendTweet(id, Tweet{CreatedAt: store.Now(), Text: "hi", Source: "web"}); err != nil {
		t.Fatal(err)
	}
	if !store.IsTarget(id) {
		t.Fatal("AppendTweet did not promote to target")
	}
	if n, _ := store.FollowerCount(id); n != 4321 {
		t.Fatalf("FollowerCount after AppendTweet = %d, want 4321", n)
	}
	p, err := store.Profile(id)
	if err != nil || p.FollowersCount != 4321 {
		t.Fatalf("Profile.FollowersCount after AppendTweet = %d (%v), want 4321", p.FollowersCount, err)
	}
	// The synthetic count also survives a snapshot round trip of the
	// promoted-but-never-followed target.
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&buf, simclock.NewVirtualAtEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := loaded.FollowerCount(id); n != 4321 {
		t.Fatalf("FollowerCount after roundtrip = %d, want 4321", n)
	}
}
