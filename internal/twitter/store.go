package twitter

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fakeproject/internal/drand"
	"fakeproject/internal/simclock"
)

// Locking. One RWMutex, Store.mu, guards the compact records, the explicit
// screen names and the name index, and serialises every mutation: creation,
// follows, removals, tweets and friend lists take it for writing, and a
// snapshot cut takes it for reading. One lock suffices because every writer
// in the tree — WAL replay, the population build and its dynamics, the
// churn driver — runs on one goroutine, and batch reads take the lock once
// per chunk, not once per id.
//
// The read paths that dominate crawl traffic take no lock at all:
//
//   - follower edges are published RCU-style (edgeseg.go): FollowersPage,
//     FollowerCount and the chronological views Load a frozen view and never
//     touch the mutex;
//   - the targets map is copy-on-write behind an atomic pointer (promotion
//     to target is rare; writers clone under the mutex);
//   - the record backing array is republished on reallocation, so fields
//     that are immutable once an account is committed (creation time, seed,
//     flags, class, behaviour percentages, the synthetic follower and friend
//     counters) can be read with no lock, gated by the committed count.
//
// The remaining state needs no lock:
//
//   - users (the committed account count) is an atomic: existence checks by
//     readers and writers (AddFollower validates its follower) need no lock,
//     because accounts are never deleted.
//   - tweetSeq is an atomic counter.
//   - nameSeed is read-only after construction (seed derivation is a pure
//     function; see drand.SeedForN).

// targetMap is the published form of the store's target set.
type targetMap = map[UserID]*targetData

// Store is the platform state. It is safe for concurrent use; see the
// locking notes above.
type Store struct {
	clock    simclock.Clock
	nameSeed *drand.Source // read-only after construction

	mu sync.RWMutex
	// recs holds UserID id's record at index id-1. IDs are allocated
	// sequentially under mu, so creation is a plain append.
	recs []record
	// recsPub is the record backing array published for lock-free reads:
	// recs[:cap] at the moment the backing last moved. Readers must check
	// the committed count first (checkExists), then Load — creation
	// publishes a fresh backing before committing the count, so a committed
	// ID's index is always in range of whatever backing the reader observes.
	// Only commit-immutable record fields may be read through it.
	recsPub atomic.Pointer[[]record]
	// names holds the explicit screen names by ID, byName the reverse
	// index; synthetic names are not indexed.
	names  map[UserID]string
	byName map[string]UserID
	// targets is copy-on-write: readers Load and index with no lock; writers
	// (holding mu) clone, insert and Store. Promotion to target is rare —
	// populations materialise a handful of audit targets — so clone cost is
	// noise, and every hot read path drops the lock in exchange.
	targets atomic.Pointer[targetMap]

	// users is the committed account count: IDs 1..users exist, always.
	users    atomic.Int64
	tweetSeq atomic.Int64

	// oplog, when non-nil, receives every mutation for durable logging
	// (see oplog.go). Read-mostly: set once before concurrent use.
	oplog OpLog
}

// NewStore creates an empty platform using the given clock and root seed
// (the seed drives name/bio/timeline synthesis).
func NewStore(clock simclock.Clock, seed uint64) *Store {
	s := &Store{
		clock:    clock,
		nameSeed: drand.New(seed),
		names:    make(map[UserID]string),
		byName:   make(map[string]UserID),
	}
	empty := make(targetMap)
	s.targets.Store(&empty)
	return s
}

// targetOf returns the materialised state of id, or nil. Lock-free: the
// targets map is copy-on-write.
func (s *Store) targetOf(id UserID) *targetData {
	return (*s.targets.Load())[id]
}

// target returns the materialised state of id, creating and publishing it
// if absent. Caller must hold s.mu for writing.
func (s *Store) target(id UserID) *targetData {
	if td := s.targetOf(id); td != nil {
		return td
	}
	td := &targetData{}
	old := *s.targets.Load()
	next := make(targetMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = td
	s.targets.Store(&next)
	return td
}

// publishRecs republishes the record backing for lock-free readers. Must be
// called whenever the backing array is (re)allocated, before the IDs
// landing in it are committed via the users counter.
func (s *Store) publishRecs() {
	full := s.recs[:cap(s.recs)]
	s.recsPub.Store(&full)
}

// checkExists validates that id names a committed account. Accounts are
// never deleted, so this needs no lock: a positive answer stays true.
func (s *Store) checkExists(id UserID) error {
	if id < 1 || int64(id) > s.users.Load() {
		return fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return nil
}

// recordIn returns the record of id. The caller must hold s.mu (read or
// write); creation appends and commits under the write lock, so every
// record a lock holder sees is committed.
func (s *Store) recordIn(id UserID) (*record, error) {
	if id < 1 || int64(id) > int64(len(s.recs)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return &s.recs[id-1], nil
}

// recordRO returns a lock-free pointer to id's record, or nil if the
// published backing has not caught up (callers fall back to the locked
// path). The caller must have already validated id via checkExists — that
// load-order (committed count first, backing second) is what guarantees the
// observed backing covers the index. Only commit-immutable fields may be
// read: createdAt, seed, flags, class, behaviour percentages, and the
// synthetic followers/friends counters. statuses and lastTweetAt mutate
// under the lock and are off limits.
func (s *Store) recordRO(id UserID) *record {
	hdr := s.recsPub.Load()
	if hdr == nil || int64(id) > int64(len(*hdr)) {
		return nil
	}
	return &(*hdr)[id-1]
}

// Grow pre-allocates capacity for n additional accounts, exactly, so a
// population build of n accounts after Grow(n) performs no per-create
// reallocation and the backing holds no slack.
func (s *Store) Grow(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if need := len(s.recs) + n; need > cap(s.recs) {
		recs := make([]record, len(s.recs), need)
		copy(recs, s.recs)
		s.recs = recs
		s.publishRecs()
	}
}
