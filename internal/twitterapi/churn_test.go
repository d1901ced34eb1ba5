package twitterapi

// Crawl-under-churn integration tests: the regime of the paper's 27-day
// Section IV-B crawl, where the follower list mutates faster than one rate-
// limited crawl can traverse it. The contract under test, end to end:
//
//   - no follower is ever served twice by one crawl (arrivals mid-crawl
//     land above the anchored cursor and shift nothing);
//   - every edge that survives the whole crawl is served exactly once
//     (purges cannot make the cursor skip stable edges);
//   - a purge racing the crawl — including one that shrinks the list below
//     the in-flight cursor, the case that used to hard-error with
//     ErrBadCursor — ends pagination with an empty or short final page.

import (
	"net/http/httptest"
	"testing"
	"time"

	"fakeproject/internal/drand"
	"fakeproject/internal/simclock"
	"fakeproject/internal/twitter"
)

// churnRig is a target account under a scripted churn driver.
type churnRig struct {
	t      *testing.T
	clock  *simclock.Virtual
	store  *twitter.Store
	target twitter.UserID
	live   []twitter.UserID // current live followers, chronological
}

func newChurnRig(t *testing.T, initial int) *churnRig {
	t.Helper()
	clock := simclock.NewVirtualAtEpoch()
	store := twitter.NewStore(clock, 1)
	store.Grow(initial + 1)
	r := &churnRig{t: t, clock: clock, store: store}
	r.target = store.MustCreateUser(twitter.UserParams{ScreenName: "watched"})
	r.burst(initial)
	return r
}

// burst adds n brand-new followers at the current instant.
func (r *churnRig) burst(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		id := r.store.MustCreateUser(twitter.UserParams{})
		if err := r.store.AddFollower(r.target, id, r.clock.Now()); err != nil {
			r.t.Fatal(err)
		}
		r.live = append(r.live, id)
	}
	r.clock.Advance(time.Minute)
}

// purge removes the live followers at the given chronological indices.
func (r *churnRig) purge(idx []int) {
	r.t.Helper()
	victims := make([]twitter.UserID, len(idx))
	kill := make(map[int]bool, len(idx))
	for i, j := range idx {
		victims[i] = r.live[j]
		kill[j] = true
	}
	if _, err := r.store.RemoveFollowers(r.target, victims, r.clock.Now()); err != nil {
		r.t.Fatal(err)
	}
	kept := r.live[:0]
	for j, id := range r.live {
		if !kill[j] {
			kept = append(kept, id)
		}
	}
	r.live = kept
	r.clock.Advance(time.Minute)
}

// snapshotSet copies the current live membership.
func (r *churnRig) snapshotSet() map[twitter.UserID]bool {
	out := make(map[twitter.UserID]bool, len(r.live))
	for _, id := range r.live {
		out[id] = true
	}
	return out
}

// crawlAssert pages through fetch, driving churn between pages, and checks
// the three-clause contract. baseline is membership at crawl start;
// betweenPages may mutate the rig and must record removals it causes.
func crawlAssert(t *testing.T, fetch func(twitter.UserID, int64) (IDPage, error),
	rig *churnRig, betweenPages func(pageNo int)) {
	t.Helper()
	baseline := rig.snapshotSet()
	removedDuring := make(map[twitter.UserID]bool)
	before := rig.snapshotSet()

	seen := make(map[twitter.UserID]bool)
	cursor := CursorFirst
	for pageNo := 0; ; pageNo++ {
		page, err := fetch(rig.target, cursor)
		if err != nil {
			t.Fatalf("page %d: crawl errored under churn: %v", pageNo, err)
		}
		for _, id := range page.IDs {
			if seen[id] {
				t.Fatalf("page %d: follower %d served twice", pageNo, id)
			}
			seen[id] = true
		}
		if page.NextCursor == CursorDone {
			break
		}
		cursor = page.NextCursor

		betweenPages(pageNo)
		// Record what this round of churn removed.
		now := rig.snapshotSet()
		for id := range before {
			if !now[id] {
				removedDuring[id] = true
			}
		}
		before = now
	}

	for id := range baseline {
		if !removedDuring[id] && !seen[id] {
			t.Fatalf("stable edge %d skipped by the crawl", id)
		}
	}
	for id := range seen {
		if !baseline[id] {
			t.Fatalf("mid-crawl arrival %d served (cursor not anchored)", id)
		}
	}
}

// TestCrawlUnderChurn interleaves purchase bursts and purge sweeps with a
// paged crawl through the in-process service.
func TestCrawlUnderChurn(t *testing.T) {
	rig := newChurnRig(t, 23000) // 5 pages
	svc := NewService(rig.store)
	src := drand.New(7)
	crawlAssert(t, svc.FollowerIDs, rig, func(int) {
		// A purchase burst lands new fakes above the crawl's anchor...
		rig.burst(1000 + src.Intn(2000))
		// ...and a purge sweep removes ~8% of the current list, mixing
		// already-served (newest) and not-yet-served (oldest) edges.
		var idx []int
		for j := range rig.live {
			if src.Intn(12) == 0 {
				idx = append(idx, j)
			}
		}
		rig.purge(idx)
	})
}

// TestCrawlSurvivesMassivePurge pins the exact bug of the old offset
// cursors: a purge that shrinks the list below the in-flight cursor made
// FollowerIDs hard-error with ErrBadCursor, killing the monitord crawls
// mid-flight. Anchored cursors finish the crawl and return exactly the
// survivors.
func TestCrawlSurvivesMassivePurge(t *testing.T) {
	rig := newChurnRig(t, 12000)
	svc := NewService(rig.store)

	first, err := svc.FollowerIDs(rig.target, CursorFirst)
	if err != nil || len(first.IDs) != FollowerIDsPageSize {
		t.Fatalf("first page = %d ids, %v", len(first.IDs), err)
	}
	// Purge 11,500 of the 12,000 — far below the cursor's 5,000 mark.
	// The 500 survivors are scattered across the whole chronology.
	var idx []int
	for j := range rig.live {
		if j%24 != 0 {
			idx = append(idx, j)
		}
	}
	rig.purge(idx)

	var rest []twitter.UserID
	for cursor := first.NextCursor; cursor != CursorDone; {
		page, err := svc.FollowerIDs(rig.target, cursor)
		if err != nil {
			t.Fatalf("post-purge page errored: %v", err)
		}
		rest = append(rest, page.IDs...)
		cursor = page.NextCursor
	}
	// Exactly the survivors older than the first page's anchor, no dupes.
	servedFirst := make(map[twitter.UserID]bool, len(first.IDs))
	for _, id := range first.IDs {
		servedFirst[id] = true
	}
	want := make(map[twitter.UserID]bool)
	for _, id := range rig.live {
		if !servedFirst[id] {
			want[id] = true
		}
	}
	if len(rest) != len(want) {
		t.Fatalf("resumed crawl returned %d ids, want %d survivors", len(rest), len(want))
	}
	for _, id := range rest {
		if !want[id] {
			t.Fatalf("resumed crawl returned %d, not an unserved survivor", id)
		}
	}

	// And a cursor stranded below *every* survivor yields one empty final
	// page rather than an error.
	rig.purge(func() []int {
		all := make([]int, len(rig.live))
		for i := range all {
			all[i] = i
		}
		return all
	}())
	page, err := svc.FollowerIDs(rig.target, first.NextCursor)
	if err != nil || len(page.IDs) != 0 || page.NextCursor != CursorDone {
		t.Fatalf("fully-purged resume = %+v, %v; want empty done page", page, err)
	}
}

// TestCrawlUnderChurnOverHTTP runs the same contract through the full wire
// stack: HTTP server, JSON codec, rate limiter and Retry-After backoff on a
// shared virtual clock.
func TestCrawlUnderChurnOverHTTP(t *testing.T) {
	rig := newChurnRig(t, 23000)
	srv := httptest.NewServer(NewServerLimits(NewService(rig.store), rig.clock, DefaultLimits()))
	defer srv.Close()
	client := NewHTTPClient(srv.URL, "crawler-token", rig.clock)
	src := drand.New(11)
	crawlAssert(t, client.FollowerIDs, rig, func(int) {
		rig.burst(500 + src.Intn(1000))
		var idx []int
		for j := range rig.live {
			if src.Intn(15) == 0 {
				idx = append(idx, j)
			}
		}
		rig.purge(idx)
	})
}

// TestAllFollowerIDsUnderConcurrentChurn drives the high-level helper while
// a goroutine churns the store concurrently — the monitord re-audit shape.
// With no quiescent point at all, the helper must still terminate without
// error or duplicates and cover every edge that was never removed.
func TestAllFollowerIDsUnderConcurrentChurn(t *testing.T) {
	rig := newChurnRig(t, 20000)
	baseline := rig.snapshotSet()
	svc := NewService(rig.store)
	client := NewDirectClient(svc, rig.clock, ClientConfig{})

	stop := make(chan struct{})
	done := make(chan struct{})
	everRemoved := make(chan map[twitter.UserID]bool, 1)
	go func() {
		defer close(done)
		src := drand.New(3)
		removed := make(map[twitter.UserID]bool)
		defer func() { everRemoved <- removed }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := rig.store.MustCreateUser(twitter.UserParams{})
			if err := rig.store.AddFollower(rig.target, id, rig.store.Now()); err != nil {
				t.Error(err)
				return
			}
			victim := rig.live[src.Intn(len(rig.live))]
			if _, err := rig.store.RemoveFollowers(rig.target, []twitter.UserID{victim}, rig.store.Now()); err != nil {
				t.Error(err)
				return
			}
			removed[victim] = true
		}
	}()

	ids, err := AllFollowerIDs(client, rig.target)
	close(stop)
	<-done
	if err != nil {
		t.Fatalf("AllFollowerIDs under live churn: %v", err)
	}
	removed := <-everRemoved
	seen := make(map[twitter.UserID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("follower %d served twice", id)
		}
		seen[id] = true
	}
	for id := range baseline {
		if !removed[id] && !seen[id] {
			t.Fatalf("stable edge %d skipped", id)
		}
	}
}
