package twitter

import "time"

// Durability hooks. The store itself stays storage-free: when an OpLog is
// attached (internal/wal), every mutating path reports the operation to the
// log from *inside* its critical section — after validation has passed, so
// only ops that will commit are logged, and before the mutation is visible,
// so the log's record order is a legal serialisation of the store's history.
// The per-op cost with no log attached is one nil check.
//
// Two ordering guarantees matter for replay determinism:
//
//   - Creates are logged under the store's write lock before the account
//     is published, so the log's create order equals ID order, and any
//     logged op referencing an ID appears after that ID's create record.
//   - Every other op (follow/unfollow/purge/tweet/set-friends) is logged
//     under the same write lock, so the log's order is the order the store
//     applied them in. Tweet IDs are logged by value and edge seqs are
//     reconstructed, so replay never re-allocates either.

// OpLog receives every store mutation for durable logging. Each LogX call
// returns the op's log sequence number; Sync blocks until that LSN is
// durable under the log's fsync policy (the store calls it after releasing
// its locks, so slow fsyncs never hold up other writers). Implementations
// must be safe for concurrent use and must not call back into the Store —
// LogX runs with store locks held.
type OpLog interface {
	LogCreate(id UserID, p UserParams) (lsn uint64, err error)
	LogFollow(target, follower UserID, at time.Time) (lsn uint64, err error)
	LogUnfollow(target, follower UserID, at time.Time) (lsn uint64, err error)
	LogPurge(target UserID, followers []UserID, at time.Time) (lsn uint64, err error)
	LogTweet(tw Tweet) (lsn uint64, err error)
	LogSetFriends(id UserID, friends []UserID) (lsn uint64, err error)
	Sync(lsn uint64) error
}

// SetOpLog attaches (or, with nil, detaches) a durability log. Set it
// before the store sees concurrent use — typically right after recovery,
// before any server starts; there is no synchronisation on the field
// itself.
func (s *Store) SetOpLog(l OpLog) { s.oplog = l }

// opSync waits for lsn to become durable. lsn 0 means nothing was logged
// (no log attached, or the mutation was a structural no-op) and returns
// immediately. A mutation whose Sync fails HAS been applied in memory and
// logged; the error tells the caller its ack guarantee is gone, which for
// a durable deployment means the process should stop taking writes.
func (s *Store) opSync(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	return s.oplog.Sync(lsn)
}
