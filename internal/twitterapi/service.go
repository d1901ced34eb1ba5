package twitterapi

import (
	"errors"
	"fmt"
	"sync"

	"fakeproject/internal/twitter"
)

// CursorFirst is the cursor value requesting the first page, and CursorDone
// is the next-cursor value signalling the end of pagination, mirroring the
// real API's -1 / 0 convention.
const (
	CursorFirst int64 = -1
	CursorDone  int64 = 0
)

// ErrBadCursor reports a cursor that does not belong to the paged list.
var ErrBadCursor = errors.New("twitterapi: invalid cursor")

// ErrBatchTooLarge reports a users/lookup batch above the 100-profile cap.
var ErrBatchTooLarge = errors.New("twitterapi: lookup batch exceeds 100 ids")

// Service exposes the endpoint logic over a twitter.Store. It performs no
// rate limiting or latency modelling — that is the transport clients' job —
// so that the same logic backs both the in-process client and the HTTP
// server.
type Service struct {
	store *twitter.Store

	mu sync.Mutex
	// friendDomains freezes the synthetic-friends permutation domain per
	// account the first time a *multi-page* friend list is served: the
	// permutation is keyed on the user-space size, so without freezing, a
	// user created between two pages would re-key the mapping and let
	// page 2 repeat IDs page 1 already served. Single-page lists (the
	// overwhelming majority) never enter the map, so it stays tiny.
	friendDomains map[twitter.UserID]int
}

// NewService wraps a store.
func NewService(store *twitter.Store) *Service {
	return &Service{store: store, friendDomains: make(map[twitter.UserID]int)}
}

// Store returns the underlying store (used by evaluation code, never by the
// simulated analytics).
func (s *Service) Store() *twitter.Store { return s.store }

// IDPage is one page of an ids endpoint.
type IDPage struct {
	IDs        []twitter.UserID
	NextCursor int64
}

// FollowerIDs returns one page of the target's follower IDs, newest follower
// first — the ordering property the paper verifies in Section IV-B. Pass
// CursorFirst to start and continue until NextCursor == CursorDone; every
// other cursor value is an opaque token minted by a previous page.
//
// Cursors are edge-anchored: the token names the next follow edge to serve
// by its append-time sequence number, so a crawl that pauses for hours of
// rate-limit sleeps resumes on the same edge no matter how many followers
// joined or were purged in between — the regime the Section IV-B 27-day
// crawl lives in. A cursor whose anchor (and everything older) has been
// purged returns an empty final page with CursorDone, never an error;
// ErrBadCursor is reserved for tokens this target never minted. Pages are
// read through Store.FollowersPage: O(log n + page) per call, copying only
// the page, served off the RCU-published edge-segment view without taking
// the store lock — concurrent crawlers of one celebrity target scale with
// reader parallelism instead of serialising on it.
func (s *Service) FollowerIDs(target twitter.UserID, cursor int64) (IDPage, error) {
	fromSeq, err := followerAnchor(target, cursor)
	if err != nil {
		return IDPage{}, err
	}
	page, err := s.store.FollowersPage(target, fromSeq, FollowerIDsPageSize)
	if err != nil {
		return IDPage{}, err
	}
	return IDPage{IDs: page.IDs, NextCursor: followerCursor(target, page.NextSeq)}, nil
}

// walkFollowers stands w at the start of the page FollowerIDs(target,
// cursor) returns, for a caller that prints the IDs rather than keep them
// (the followers/ids handler); followerCursor(target, w.NextSeq()) is the
// page's NextCursor.
func (s *Service) walkFollowers(w *twitter.FollowerWalk, target twitter.UserID, cursor int64) error {
	fromSeq, err := followerAnchor(target, cursor)
	if err != nil {
		return err
	}
	return s.store.WalkFollowers(w, target, fromSeq, FollowerIDsPageSize)
}

// FriendIDs returns one page of the account's friend list (accounts it
// follows), newest first. Accounts without a materialised friend list get a
// deterministic synthetic list consistent with their friends counter (see
// DESIGN.md: the full follow graph is not materialised). Friend lists are
// immutable, so their cursors stay plain offsets.
func (s *Service) FriendIDs(id twitter.UserID, cursor int64) (IDPage, error) {
	if friends, ok := s.store.Friends(id); ok {
		return paginate(friends, cursor, FriendIDsPageSize)
	}
	count, err := s.store.FriendsCount(id)
	if err != nil {
		return IDPage{}, err
	}
	return s.synthFriendsPage(id, count, cursor)
}

// synthFriendsPage fabricates one page of a procedural account's friend
// list: `count` distinct existing user IDs, deterministic per id.
//
// The list is never materialised. Position i maps to a user through a
// keyed Feistel permutation of the index space, so serving a page costs
// O(page) regardless of count — a 100K-friend hub's first page no longer
// pays a 100K-element rejection-sampling build (and neither does every
// subsequent page, which the old code re-fabricated from scratch).
func (s *Service) synthFriendsPage(id twitter.UserID, count int, cursor int64) (IDPage, error) {
	n := s.store.UserCount()
	if count > FriendIDsPageSize {
		// Multi-page list: freeze the user-space size the permutation is
		// built over, so pages cut before and after a mid-crawl user burst
		// stay slices of one bijection. (Users are never deleted, so a
		// frozen n only ever under-samples newer accounts.) Each first
		// page re-freezes at the live count — the stability contract is
		// per crawl, and a permanently sticky domain would cap a hub
		// first crawled in a small user space forever.
		s.mu.Lock()
		if frozen, ok := s.friendDomains[id]; ok && cursor != CursorFirst {
			n = frozen
		} else {
			s.friendDomains[id] = n
		}
		s.mu.Unlock()
	}
	if count > n-1 {
		count = n - 1
	}
	if count < 0 {
		count = 0
	}
	start := int64(0)
	if cursor != CursorFirst {
		start = cursor
	}
	if start < 0 || start > int64(count) {
		return IDPage{}, fmt.Errorf("%w: %d over %d items", ErrBadCursor, cursor, count)
	}
	end := start + int64(FriendIDsPageSize)
	if end > int64(count) {
		end = int64(count)
	}
	// Keyed per account by a cheap hash, not a drand fork: seeding a
	// math/rand state on every page request is exactly the cost class the
	// profile-synthesis path already eliminated.
	perm := newFeistel(uint64(id)*2654435761, uint64(n-1))
	out := make([]twitter.UserID, 0, end-start)
	for i := start; i < end; i++ {
		// perm is a bijection on [0, n-1); lifting candidates past the
		// account's own id yields distinct IDs in [1, n] minus self.
		cand := twitter.UserID(perm.at(uint64(i))) + 1
		if cand >= id {
			cand++
		}
		out = append(out, cand)
	}
	next := CursorDone
	if end < int64(count) {
		next = end
	}
	return IDPage{IDs: out, NextCursor: next}, nil
}

func paginate(list []twitter.UserID, cursor int64, pageSize int) (IDPage, error) {
	start := int64(0)
	if cursor != CursorFirst {
		start = cursor
	}
	if start < 0 || start > int64(len(list)) {
		return IDPage{}, fmt.Errorf("%w: %d over %d items", ErrBadCursor, cursor, len(list))
	}
	end := start + int64(pageSize)
	if end > int64(len(list)) {
		end = int64(len(list))
	}
	page := append([]twitter.UserID(nil), list[start:end]...)
	next := CursorDone
	if end < int64(len(list)) {
		next = end
	}
	return IDPage{IDs: page, NextCursor: next}, nil
}

// UsersLookup returns the profiles of up to 100 accounts. Unknown IDs are
// silently dropped, as the real endpoint does.
func (s *Service) UsersLookup(ids []twitter.UserID) ([]twitter.Profile, error) {
	if len(ids) > UsersLookupBatchSize {
		return nil, fmt.Errorf("%w: %d", ErrBatchTooLarge, len(ids))
	}
	return s.store.Profiles(ids), nil
}

// UsersShow resolves a single account by screen name.
func (s *Service) UsersShow(screenName string) (twitter.Profile, error) {
	id, err := s.store.LookupName(screenName)
	if err != nil {
		return twitter.Profile{}, err
	}
	return s.store.Profile(id)
}

// UserTimeline returns up to count most-recent tweets of the account, newest
// first. count is capped at the 200-per-request page size. A non-zero maxID
// restricts the page to tweets with ID <= maxID (the real API's max_id
// pagination; per-author tweet IDs decrease with age). Across pages, at most
// the newest TimelineCap (3,200) tweets are reachable.
func (s *Service) UserTimeline(id twitter.UserID, count int, maxID twitter.TweetID) ([]twitter.Tweet, error) {
	out := make([]twitter.Tweet, 0, timelineCount(count))
	err := s.visitTimeline(id, count, maxID, func(tw twitter.Tweet) {
		out = append(out, tw)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// timelineCount is the page size a requested count stands for.
func timelineCount(count int) int {
	if count <= 0 || count > TimelinePageSize {
		return TimelinePageSize
	}
	return count
}

// visitTimeline calls fn with each tweet of the page UserTimeline(id, count,
// maxID) returns, in order. The store does a page's work for a page: no
// tweet outside it is built.
func (s *Service) visitTimeline(id twitter.UserID, count int, maxID twitter.TweetID, fn func(twitter.Tweet)) error {
	return s.store.VisitTimeline(id, maxID, timelineCount(count), TimelineCap, fn)
}
