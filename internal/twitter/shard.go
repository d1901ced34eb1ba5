package twitter

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fakeproject/internal/drand"
	"fakeproject/internal/simclock"
)

// Lock striping. All platform state that belongs to a single account — its
// compact record, its explicit screen name, and (for targets) its follower
// edges, tweets and friend list — lives in exactly one shard,
// chosen by ID. Every single-account operation therefore takes exactly one
// shard lock, so auditd's worker pool and monitord's re-audit crawls only
// contend when they touch the *same* account, not whenever they touch the
// store at all. Twitter-shaped load is heavy-tailed (a few hot celebrity
// targets plus a long tail); striping serialises the hot target's shard and
// lets the tail proceed in parallel.
//
// Shard choice is round-robin over the dense ID space: UserID id lives in
// shard (id-1) % N at slot (id-1) / N. IDs are allocated sequentially, so
// every shard's record segment is itself dense and append-only — slot
// arithmetic replaces hashing, and a shard's slice never has holes.
//
// On top of the stripes, the read paths that dominate crawl traffic are
// lock-free:
//
//   - follower edges are published RCU-style (edgeseg.go): FollowersPage,
//     FollowerCount and the chronological views Load a frozen view and never
//     touch the shard mutex;
//   - the targets map is copy-on-write behind an atomic pointer (promotion
//     to target is rare; writers clone under the shard mutex);
//   - the record backing array is republished on reallocation, so fields
//     that are immutable once an account is committed (creation time, seed,
//     flags, class, behaviour percentages, the synthetic follower and friend
//     counters) can be read with no lock, gated by the committed count.
//
// The remaining global state is deliberately narrow:
//
//   - ID allocation is serialised by createMu (creation is a tiny critical
//     section: one append into the owning shard). Serialising creation keeps
//     the "IDs are dense, records have no holes" invariant that slot
//     arithmetic, snapshots and the API layer all rely on.
//   - users (the committed account count) is an atomic: existence checks by
//     readers and cross-shard writers (AddFollower validates its follower)
//     need no lock at all, because accounts are never deleted.
//   - tweetSeq is an atomic counter.
//   - the byName index is striped separately by name hash, because names
//     arrive hashed by content, not by ID.
//   - nameSeed is read-only after construction (seed derivation is a pure
//     function; see drand.SeedForN).

// DefaultShards is the shard count NewStore uses unless WithShards overrides
// it. Sixteen shards keep the worst-case all-shard operations (snapshots,
// batch regrouping) cheap while giving an 8-worker audit pool an expected
// collision rate low enough that shard locks are usually uncontended.
const DefaultShards = 16

// Option configures a Store at construction time.
type Option func(*storeConfig)

type storeConfig struct {
	shards int
}

// WithShards sets the lock-stripe shard count (minimum 1). A 1-shard store
// degenerates to the pre-striping single-lock store — the configuration the
// contention benchmarks use as their baseline. The shard count is a purely
// physical choice: observable state, iteration order and snapshot bytes are
// identical for any value.
func WithShards(n int) Option {
	return func(c *storeConfig) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// targetMap is the published form of a shard's target set.
type targetMap = map[UserID]*targetData

// shard owns an interleaved segment of the account space: records at slot
// j hold UserID(j*N + index + 1). The struct is padded to two cache lines
// so that neighbouring shards' mutexes never share a line (a contended
// shard would otherwise slow its neighbours by pure false sharing).
type shard struct {
	mu   sync.RWMutex
	recs []record
	// recsPub is the shard's record backing array published for lock-free
	// reads: recs[:cap] at the moment the backing last moved. Readers must
	// check the committed count first (checkExists), then Load — creation
	// publishes a fresh backing before committing the count, so a committed
	// ID's slot is always in range of whatever backing the reader observes.
	// Only commit-immutable record fields may be read through it.
	recsPub atomic.Pointer[[]record]
	names   map[UserID]string
	// targets is copy-on-write: readers Load and index with no lock; writers
	// (holding mu) clone, insert and Store. Promotion to target is rare —
	// populations materialise a handful of audit targets — so clone cost is
	// noise, and every hot read path drops the shard lock in exchange.
	targets atomic.Pointer[targetMap]
	// ops counts operations routed to this shard (shard heat): one bump per
	// single-account operation and one per batch member. The counter is the
	// observability view of the striping argument above — under heavy-tailed
	// load the hot target's shard should visibly run ahead of the rest.
	// Internal bookkeeping passes (snapshot write/read) route around it via
	// shardOf, so the heat view reflects platform traffic only.
	ops atomic.Uint64
	_   [64]byte
}

// targetOf returns the materialised state of id, or nil. Lock-free: the
// targets map is copy-on-write.
func (sh *shard) targetOf(id UserID) *targetData {
	return (*sh.targets.Load())[id]
}

// target returns the materialised state of id, creating and publishing it
// if absent. Caller must hold sh.mu for writing.
func (sh *shard) target(id UserID) *targetData {
	if td := sh.targetOf(id); td != nil {
		return td
	}
	td := &targetData{}
	sh.putTarget(id, td)
	return td
}

// putTarget publishes td as id's materialised state via copy-on-write.
// Caller must hold sh.mu for writing (or otherwise be the only writer, as
// during a snapshot load).
func (sh *shard) putTarget(id UserID, td *targetData) {
	old := *sh.targets.Load()
	next := make(targetMap, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = td
	sh.targets.Store(&next)
}

// publishRecs republishes the shard's record backing for lock-free readers.
// Must be called whenever the backing array is (re)allocated, before the
// IDs landing in it are committed via the users counter.
func (sh *shard) publishRecs() {
	full := sh.recs[:cap(sh.recs)]
	sh.recsPub.Store(&full)
}

// nameStripe is one stripe of the explicit screen-name index.
type nameStripe struct {
	mu     sync.RWMutex
	byName map[string]UserID
	_      [64]byte
}

// Store is the platform state. It is safe for concurrent use; see the lock-
// striping notes above for how operations on different accounts avoid
// contending with each other.
type Store struct {
	clock    simclock.Clock
	nameSeed *drand.Source // read-only after construction

	shards []shard
	names  []nameStripe

	// createMu serialises account creation (ID allocation + record commit)
	// and quiesces it during snapshots and Grow.
	createMu sync.Mutex
	// users is the committed account count: IDs 1..users exist, always.
	users    atomic.Int64
	tweetSeq atomic.Int64

	// oplog, when non-nil, receives every mutation for durable logging
	// (see oplog.go). Read-mostly: set once before concurrent use.
	oplog OpLog
}

// NewStore creates an empty platform using the given clock and root seed
// (the seed drives name/bio/timeline synthesis).
func NewStore(clock simclock.Clock, seed uint64, opts ...Option) *Store {
	cfg := storeConfig{shards: DefaultShards}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Store{
		clock:    clock,
		nameSeed: drand.New(seed),
		shards:   make([]shard, cfg.shards),
		names:    make([]nameStripe, cfg.shards),
	}
	for i := range s.shards {
		s.shards[i].names = make(map[UserID]string)
		empty := make(targetMap)
		s.shards[i].targets.Store(&empty)
	}
	for i := range s.names {
		s.names[i].byName = make(map[string]UserID)
	}
	return s
}

// Shards reports the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// shardOf returns the shard owning id without bumping its heat counter —
// the accessor for internal bookkeeping passes (snapshot write/read) that
// must leave the operator-facing shard-heat view untouched. Any id (even
// out of range or negative) maps to some shard; existence is checked
// separately.
func (s *Store) shardOf(id UserID) *shard {
	return &s.shards[uint64(id-1)%uint64(len(s.shards))]
}

// shardFor returns the shard owning id and counts the routing as one
// operation of shard heat. All platform-traffic paths come through here.
func (s *Store) shardFor(id UserID) *shard {
	sh := s.shardOf(id)
	sh.ops.Add(1)
	return sh
}

// ShardOps reports the per-shard operation counters (index = shard index).
// The store stays metrics-free; daemons export this as shard-heat gauges.
func (s *Store) ShardOps() []uint64 {
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].ops.Load()
	}
	return out
}

// slotFor returns id's record index within its owning shard.
func (s *Store) slotFor(id UserID) int {
	return int(uint64(id-1) / uint64(len(s.shards)))
}

// stripeFor returns the name-index stripe owning name (FNV-64a hash).
func (s *Store) stripeFor(name string) *nameStripe {
	return &s.names[drand.HashString(name)%uint64(len(s.names))]
}

// checkExists validates that id names a committed account. Accounts are
// never deleted, so this needs no lock: a positive answer stays true.
func (s *Store) checkExists(id UserID) error {
	if id < 1 || int64(id) > s.users.Load() {
		return fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return nil
}

// recordIn returns the record of id. sh must be id's owning shard and the
// caller must hold its lock (read or write). Existence is gated on the
// committed count, the store's single commit point: a record mid-create
// (appended to its shard but not yet published via users) is invisible
// here exactly as it is to checkExists, UserCount and snapshots.
func (s *Store) recordIn(sh *shard, id UserID) (*record, error) {
	if id < 1 || int64(id) > s.users.Load() {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	slot := s.slotFor(id)
	if slot >= len(sh.recs) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return &sh.recs[slot], nil
}

// recordRO returns a lock-free pointer to id's record, or nil if the
// published backing has not caught up (callers fall back to the locked
// path). The caller must have already validated id via checkExists — that
// load-order (committed count first, backing second) is what guarantees the
// observed backing covers the slot. Only commit-immutable fields may be
// read: createdAt, seed, flags, class, behaviour percentages, and the
// synthetic followers/friends counters. statuses and lastTweetAt mutate
// under the shard lock and are off limits.
func (s *Store) recordRO(sh *shard, id UserID) *record {
	hdr := sh.recsPub.Load()
	if hdr == nil {
		return nil
	}
	recs := *hdr
	slot := s.slotFor(id)
	if slot >= len(recs) {
		return nil
	}
	return &recs[slot]
}

// rlockAll read-locks every shard in index order (the one fixed multi-shard
// lock order in the package; see WriteSnapshot). Callers must pair it with
// runlockAll.
func (s *Store) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

// groupByShard partitions positions of ids by owning shard index so batch
// paths take each shard lock once. Unknown ids are dropped here (both
// callers skip them anyway); the committed count is read once so the whole
// batch shares one consistent existence cutoff.
func (s *Store) groupByShard(ids []UserID) [][]int32 {
	groups := make([][]int32, len(s.shards))
	limit := s.users.Load()
	for i, id := range ids {
		if id < 1 || int64(id) > limit {
			continue
		}
		si := uint64(id-1) % uint64(len(s.shards))
		s.shards[si].ops.Add(1)
		groups[si] = append(groups[si], int32(i))
	}
	return groups
}

// Grow pre-allocates capacity for n additional accounts, split across the
// shards that will actually receive them: shard i gets capacity for its
// share of the next n IDs, so a population build of n accounts after
// Grow(n) performs no per-create reallocation in any shard.
func (s *Store) Grow(n int) {
	if n <= 0 {
		return
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	// Round up: with round-robin placement no shard receives more than
	// ceil(n / shards) of the next n accounts.
	per := (n + len(s.shards) - 1) / len(s.shards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if need := len(sh.recs) + per; need > cap(sh.recs) {
			recs := make([]record, len(sh.recs), need)
			copy(recs, sh.recs)
			sh.recs = recs
			sh.publishRecs()
		}
		sh.mu.Unlock()
	}
}
