package twitter

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"fakeproject/internal/simclock"
)

// churnStore builds a target with n followers, one per second.
func churnStore(t *testing.T, n int) (*Store, UserID, []UserID) {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	s := NewStore(clock, 1)
	target := s.MustCreateUser(UserParams{ScreenName: "t"})
	at := simclock.Epoch.Add(-time.Duration(n) * time.Second)
	followers := make([]UserID, 0, n)
	for i := 0; i < n; i++ {
		id := s.MustCreateUser(UserParams{})
		if err := s.AddFollower(target, id, at); err != nil {
			t.Fatal(err)
		}
		followers = append(followers, id)
		at = at.Add(time.Second)
	}
	return s, target, followers
}

func TestFollowersPage(t *testing.T) {
	s, target, followers := churnStore(t, 10)
	newest, err := s.FollowersNewestFirst(target)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh target assigns seqs 1..10 in follow order, so anchor seq k
	// serves the k oldest edges newest-first.
	cases := []struct {
		fromSeq  uint64
		limit    int
		want     []UserID
		wantNext uint64
	}{
		{SeqNewest, 3, newest[:3], 7},
		{7, 4, newest[3:7], 3},
		{3, 100, newest[7:], 0},
		{10, 10, newest, 0},
		{0, 5, nil, 0},
		{SeqNewest, 0, nil, 0},
		{SeqNewest, -2, nil, 0},
	}
	for _, c := range cases {
		page, err := s.FollowersPage(target, c.fromSeq, c.limit)
		if err != nil {
			t.Fatalf("FollowersPage(%d, %d): %v", c.fromSeq, c.limit, err)
		}
		if page.Total != 10 {
			t.Fatalf("FollowersPage(%d, %d) total = %d, want 10", c.fromSeq, c.limit, page.Total)
		}
		if page.NextSeq != c.wantNext {
			t.Fatalf("FollowersPage(%d, %d) next = %d, want %d", c.fromSeq, c.limit, page.NextSeq, c.wantNext)
		}
		if len(page.IDs) != len(c.want) {
			t.Fatalf("FollowersPage(%d, %d) = %v, want %v", c.fromSeq, c.limit, page.IDs, c.want)
		}
		for i := range page.IDs {
			if page.IDs[i] != c.want[i] {
				t.Fatalf("FollowersPage(%d, %d)[%d] = %d, want %d", c.fromSeq, c.limit, i, page.IDs[i], c.want[i])
			}
		}
	}
	if _, err := s.FollowersPage(999, SeqNewest, 5); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown target err = %v, want ErrUnknownUser", err)
	}
	// Non-target accounts yield empty pages, matching FollowersNewestFirst.
	if page, err := s.FollowersPage(followers[0], SeqNewest, 5); err != nil || len(page.IDs) != 0 || page.Total != 0 {
		t.Fatalf("non-target page = %+v, %v; want empty", page, err)
	}
}

// TestFollowersPageMatchesFullView cross-checks paged assembly against the
// full-copy accessor on a larger list.
func TestFollowersPageMatchesFullView(t *testing.T) {
	s, target, _ := churnStore(t, 2357)
	newest, err := s.FollowersNewestFirst(target)
	if err != nil {
		t.Fatal(err)
	}
	var paged []UserID
	for from := SeqNewest; ; {
		page, err := s.FollowersPage(target, from, 500)
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != len(newest) {
			t.Fatalf("total = %d, want %d", page.Total, len(newest))
		}
		paged = append(paged, page.IDs...)
		if page.NextSeq == 0 {
			break
		}
		from = page.NextSeq
	}
	if len(paged) != len(newest) {
		t.Fatalf("paged %d followers, want %d", len(paged), len(newest))
	}
	for i := range paged {
		if paged[i] != newest[i] {
			t.Fatalf("paged[%d] = %d, want %d", i, paged[i], newest[i])
		}
	}
}

// TestFollowersPageAnchorsSurviveChurn is the store-level heart of the
// churn-proof contract: an anchor held across arrivals and purges neither
// duplicates nor skips surviving edges, and an anchor whose own edge was
// purged resolves to the next older survivor.
func TestFollowersPageAnchorsSurviveChurn(t *testing.T) {
	s, target, followers := churnStore(t, 9)

	// Read the newest 3 (seqs 9, 8, 7), holding an anchor at seq 6.
	first, err := s.FollowersPage(target, SeqNewest, 3)
	if err != nil || len(first.IDs) != 3 || first.NextSeq != 6 {
		t.Fatalf("first page = %+v, %v", first, err)
	}

	// A purchase burst lands 5 new followers (seqs 10..14)...
	now := s.Now()
	for i := 0; i < 5; i++ {
		id := s.MustCreateUser(UserParams{})
		if err := s.AddFollower(target, id, now); err != nil {
			t.Fatal(err)
		}
	}
	// ...and a purge removes the anchored edge (seq 6) plus one deeper
	// survivor-to-be-skipped check candidate (seq 4).
	if _, err := s.RemoveFollowers(target, []UserID{followers[5], followers[3]}, now); err != nil {
		t.Fatal(err)
	}

	// Resuming at seq 6 serves seq 5 next: no re-serving of the burst
	// (seqs > 6), no skipping of survivors.
	rest, err := s.FollowersPage(target, first.NextSeq, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []UserID{followers[4], followers[2], followers[1], followers[0]}
	if len(rest.IDs) != len(want) {
		t.Fatalf("resumed page = %v, want %v", rest.IDs, want)
	}
	for i := range want {
		if rest.IDs[i] != want[i] {
			t.Fatalf("resumed[%d] = %d, want %d", i, rest.IDs[i], want[i])
		}
	}
	if rest.NextSeq != 0 {
		t.Fatalf("NextSeq = %d, want 0", rest.NextSeq)
	}

	// An anchor below every survivor (everything older purged) is an empty
	// final page, not an error.
	if _, err := s.RemoveFollowers(target, followers[:3], now); err != nil {
		t.Fatal(err)
	}
	empty, err := s.FollowersPage(target, 3, 100)
	if err != nil || len(empty.IDs) != 0 || empty.NextSeq != 0 {
		t.Fatalf("purged-out anchor page = %+v, %v; want empty", empty, err)
	}

	// Seqs are never reused: a refollow gets a fresh anchor above the burst.
	if err := s.AddFollower(target, followers[5], now.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	edges, _ := s.FollowEdges(target)
	if got := edges[len(edges)-1].Seq; got != 15 {
		t.Fatalf("refollow seq = %d, want 15", got)
	}
}

func TestRemoveFollowers(t *testing.T) {
	s, target, followers := churnStore(t, 8)
	now := s.Now()

	gone := []UserID{followers[1], followers[4], followers[7], 9999}
	n, err := s.RemoveFollowers(target, gone, now)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("removed %d edges, want 3", n)
	}
	count, _ := s.FollowerCount(target)
	if count != 5 {
		t.Fatalf("FollowerCount = %d, want 5", count)
	}
	// Survivors keep their chronological order.
	chrono, _ := s.FollowersChronological(target)
	want := []UserID{followers[0], followers[2], followers[3], followers[5], followers[6]}
	for i := range chrono {
		if chrono[i] != want[i] {
			t.Fatalf("chrono[%d] = %d, want %d", i, chrono[i], want[i])
		}
	}
	// Profile view follows the live edge list.
	p, _ := s.Profile(target)
	if p.FollowersCount != 5 {
		t.Fatalf("profile followers = %d, want 5", p.FollowersCount)
	}
}

// TestChurnRetainsNoRemovalHistory: a store keeps no per-removal state, so
// a target churned through 100 rounds of a 4096-follower purchase and its
// purge (409,600 removals, ~16 MB at 40 bytes an entry if each were kept)
// holds no more heap than it did before the first round.
func TestChurnRetainsNoRemovalHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation-heavy churn; heap figures under -race measure the detector")
	}
	const rounds, batch = 100, 4096
	s, target, followers := churnStore(t, batch)
	if _, err := s.RemoveFollowers(target, followers, s.Now()); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	at := s.Now()
	for r := 0; r < rounds; r++ {
		at = at.Add(time.Second)
		for _, f := range followers {
			if err := s.AddFollower(target, f, at); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := s.RemoveFollowers(target, followers, at); err != nil || n != batch {
			t.Fatalf("round %d purged %d: %v", r, n, err)
		}
	}
	after := heap()
	runtime.KeepAlive(s)
	const bound = 4 << 20
	if after > before+bound {
		t.Fatalf("heap grew %.1f MB over %d churn rounds, bound is %d MB",
			float64(after-before)/(1<<20), rounds, bound>>20)
	}
}

func TestRemoveFollowersMonotonicRemovalTimes(t *testing.T) {
	s, target, followers := churnStore(t, 4)
	now := s.Now()
	if _, err := s.RemoveFollowers(target, followers[:1], now); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveFollowers(target, followers[1:2], now.Add(-time.Hour)); !errors.Is(err, ErrNotMonotonic) {
		t.Fatalf("backwards removal err = %v, want ErrNotMonotonic", err)
	}
	// Equal times are fine (a purge removes a batch in one instant).
	if _, err := s.RemoveFollowers(target, followers[1:2], now); err != nil {
		t.Fatal(err)
	}
}

func TestUnfollowThenRefollow(t *testing.T) {
	s, target, followers := churnStore(t, 3)
	now := s.Now()
	ok, err := s.Unfollow(target, followers[1], now)
	if err != nil || !ok {
		t.Fatalf("Unfollow = %v, %v; want true", ok, err)
	}
	ok, err = s.Unfollow(target, followers[1], now)
	if err != nil || ok {
		t.Fatalf("second Unfollow = %v, %v; want false", ok, err)
	}
	// The account can follow again; the new edge lands at the newest end.
	if err := s.AddFollower(target, followers[1], now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	newest, _ := s.FollowersNewestFirst(target)
	if newest[0] != followers[1] {
		t.Fatalf("newest follower = %d, want refollowed %d", newest[0], followers[1])
	}
}
