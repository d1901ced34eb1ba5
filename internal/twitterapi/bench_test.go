package twitterapi

import (
	"fmt"
	"testing"
	"time"

	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// benchService builds a service over a store with one target carrying
// `followers` materialised edges and `users` total accounts.
func benchService(tb testing.TB, followers, users int) (*Service, twitter.UserID) {
	tb.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	store.Grow(users)
	target := store.MustCreateUser(twitter.UserParams{ScreenName: "t"})
	at := simclock.Epoch.AddDate(-1, 0, 0)
	for i := 0; i < followers; i++ {
		id := store.MustCreateUser(twitter.UserParams{})
		if err := store.AddFollower(target, id, at); err != nil {
			tb.Fatal(err)
		}
		at = at.Add(time.Second)
	}
	for n := store.UserCount(); n < users; n++ {
		store.MustCreateUser(twitter.UserParams{Friends: 100})
	}
	return NewService(store), target
}

// BenchmarkFollowerIDsPage measures one 5K follower page served from a
// 100K list through the full cursor path: decode the opaque token, binary-
// search the seq anchor, copy the page, mint the next token. Anchors
// rotate through the list so the search depth is representative.
func BenchmarkFollowerIDsPage(b *testing.B) {
	svc, target := benchService(b, 100000, 100001)
	cursors := make([]int64, 19)
	for i := range cursors {
		cursors[i] = encodeCursor(target, uint64((i+1)*5000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, err := svc.FollowerIDs(target, cursors[i%len(cursors)])
		if err != nil || len(page.IDs) != FollowerIDsPageSize {
			b.Fatalf("page = %d ids, %v", len(page.IDs), err)
		}
	}
}

// benchmarkSynthFriends serves the first synthetic friends page of an
// account with the given friends counter. The point of the suite is the
// *flatness* across counts: each 5K page must cost the same whether the
// account follows 5K or 200K others — the old implementation fabricated
// (and re-fabricated, every call) the entire list first.
func benchmarkSynthFriends(b *testing.B, count int) {
	svc, _ := benchService(b, 0, 250001)
	id := svc.store.MustCreateUser(twitter.UserParams{Friends: count})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, err := svc.FriendIDs(id, CursorFirst)
		if err != nil || len(page.IDs) != FriendIDsPageSize {
			b.Fatalf("page = %d ids, %v", len(page.IDs), err)
		}
	}
}

func BenchmarkSynthFriendsPage(b *testing.B) {
	for _, count := range []int{5000, 50000, 200000} {
		b.Run(fmt.Sprintf("friends=%d", count), func(b *testing.B) {
			benchmarkSynthFriends(b, count)
		})
	}
}
